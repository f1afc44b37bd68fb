package hough

// CirclesWorkers is CirclesScratch with the worker count given, for the
// external reference tests.
var CirclesWorkers = circles

// VotesLeft counts the nonzero cells left in s's vote planes and row maxima,
// over every worker's buffers to their full capacity. Between calls it must
// be zero: a call reuses the planes without clearing them.
func VotesLeft(s *Scratch) int {
	n := 0
	for _, ps := range s.workers[:cap(s.workers)] {
		for _, buf := range [][]int32{ps.votes[:cap(ps.votes)], ps.rowMax[:cap(ps.rowMax)]} {
			for _, v := range buf {
				if v != 0 {
					n++
				}
			}
		}
	}
	return n
}
