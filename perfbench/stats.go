package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// beyond is how many samples must lie above a reported tail percentile.
const beyond = 10

// stat is one distribution reduced to the number the benchmark reports, with
// what a reader needs to trust it: the sample count and the quantile that
// was actually used.
type stat struct {
	Value float64 `json:"value"`
	Q     float64 `json:"q"`
	N     int     `json:"n"`
}

// percentile reports the q-quantile of xs by nearest rank. The median is
// reported for any non-empty sample. A tail quantile (q > 0.5) is used only
// when at least ten samples lie beyond it; with fewer samples the highest
// quantile that has ten beyond it is reported instead, never below the
// median, and Q says which one that was. An empty sample reports zero.
func percentile(xs []float64, q float64) stat {
	n := len(xs)
	if n == 0 {
		return stat{}
	}
	k := int(math.Ceil(q*float64(n) - 1e-9)) // 1-based rank
	if q > 0.5 && n-k < beyond {
		k = max(n-beyond, (n+1)/2)
		q = float64(k) / float64(n)
	}
	k = min(max(k, 1), n)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stat{Value: s[k-1], Q: q, N: n}
}

// median is the 0.5-quantile value of xs (zero when empty).
func median(xs []float64) float64 { return percentile(xs, 0.5).Value }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mib converts bytes to the benchmark's MB (2^20 bytes).
func mib(b int64) float64 { return float64(b) / (1 << 20) }

// safeDiv is a/b, or zero when b is zero.
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssSampler samples the process's resident set every rssEvery while a
// phase runs, so the phase can report the peak of each of its intervals.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	at   []time.Time
	rss  []int64
}

const rssEvery = 10 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if b := residentBytes(); b > 0 {
				s.at, s.rss = append(s.at, time.Now()), append(s.rss, b)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// peak stops sampling and returns the median, over the intervals that
// bounds delimits, of each interval's highest sample.
func (s *rssSampler) peak(bounds []time.Time) int64 {
	close(s.stop)
	<-s.done
	var peaks []float64
	for i := 1; i < len(bounds); i++ {
		var hi int64
		for j, at := range s.at {
			if !at.Before(bounds[i-1]) && !at.After(bounds[i]) {
				hi = max(hi, s.rss[j])
			}
		}
		if hi > 0 {
			peaks = append(peaks, float64(hi))
		}
	}
	return int64(median(peaks))
}

// residentBytes is the memory the Go runtime holds: everything it has
// mapped minus what it has released to the operating system. Unlike the
// kernel's RSS it does not depend on when the kernel reclaims pages the
// runtime has already freed.
func residentBytes() int64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(s)
	return int64(s[0].Value.Uint64() - s[1].Value.Uint64())
}
