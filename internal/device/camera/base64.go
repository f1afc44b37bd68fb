package camera

import (
	"encoding/base64"
	"encoding/binary"
	"strings"
)

// The take_picture result carries the frame as base64.StdEncoding text. The
// codec here produces and reads exactly that text two characters (12 bits)
// per table lookup; base64.StdEncoding itself handles the padded last
// quantum and every input it rejects, so its results and error messages
// are the ones callers see.

const stdAlphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

// encPairs maps 12 bits to their two characters, the first in the low byte.
var encPairs = func() (t [1 << 12]uint16) {
	for v := range t {
		t[v] = uint16(stdAlphabet[v>>6]) | uint16(stdAlphabet[v&63])<<8
	}
	return t
}()

// badPair marks a decPairs entry whose characters are not both in the
// alphabet; decoded values have 12 bits.
const badPair = 1 << 15

// decPairs maps two characters, the first in the low byte, to their 12
// bits.
var decPairs = func() (t [1 << 16]uint16) {
	for i := range t {
		t[i] = badPair
	}
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			t[int(stdAlphabet[i])|int(stdAlphabet[j])<<8] = uint16(i<<6 | j)
		}
	}
	return t
}()

// encodeBase64 returns base64.StdEncoding.EncodeToString(src). The text
// goes through a stack buffer into a strings.Builder grown once to its
// exact length, which allocates without zeroing and becomes the string
// without a copy.
func encodeBase64(src []byte) string {
	var sb strings.Builder
	sb.Grow(base64.StdEncoding.EncodedLen(len(src)))
	var buf [4096]byte
	body := len(src) / 3 * 3
	for s := src[:body]; len(s) > 0; {
		n := min(len(s), len(buf)/4*3)
		encodePairs(buf[:n/3*4], s[:n])
		sb.Write(buf[:n/3*4])
		s = s[n:]
	}
	d := buf[:base64.StdEncoding.EncodedLen(len(src)-body)]
	base64.StdEncoding.Encode(d, src[body:])
	sb.Write(d)
	return sb.String()
}

// encodePairs writes the text of s, whole 3-byte groups, to d.
func encodePairs(d, s []byte) {
	for ; len(s) >= 8 && len(d) >= 8; s, d = s[6:], d[8:] {
		v := binary.BigEndian.Uint64(s) // 48 bits used
		binary.LittleEndian.PutUint64(d, uint64(encPairs[v>>52])|
			uint64(encPairs[v>>40&0xfff])<<16|
			uint64(encPairs[v>>28&0xfff])<<32|
			uint64(encPairs[v>>16&0xfff])<<48)
	}
	for ; len(s) >= 3 && len(d) >= 4; s, d = s[3:], d[4:] {
		v := uint(s[0])<<16 | uint(s[1])<<8 | uint(s[2])
		binary.LittleEndian.PutUint32(d, uint32(encPairs[v>>12])|uint32(encPairs[v&0xfff])<<16)
	}
}

// decodeBase64 returns base64.StdEncoding.DecodeString(s).
func decodeBase64(s string) ([]byte, error) {
	if len(s) == 0 || len(s)%4 != 0 {
		return base64.StdEncoding.DecodeString(s)
	}
	body := len(s) - 4 // the last quantum may be padded
	dst := make([]byte, len(s)/4*3)
	var bad uint16
	i, o := 0, 0
	for ; i+8 <= body; i, o = i+8, o+6 {
		q := s[i : i+8] // one 64-bit load: eight characters, four pairs
		v := uint64(q[0]) | uint64(q[1])<<8 | uint64(q[2])<<16 | uint64(q[3])<<24 |
			uint64(q[4])<<32 | uint64(q[5])<<40 | uint64(q[6])<<48 | uint64(q[7])<<56
		a, b, c, e := decPairs[uint16(v)], decPairs[uint16(v>>16)], decPairs[uint16(v>>32)], decPairs[uint16(v>>48)]
		bad |= a | b | c | e
		// dst has 3 bytes past the body for the last quantum, so the
		// 8-byte store of 6 bytes stays inside it.
		binary.BigEndian.PutUint64(dst[o:], uint64(a)<<52|uint64(b)<<40|uint64(c)<<28|uint64(e)<<16)
	}
	for ; i < body; i, o = i+4, o+3 {
		a := decPairs[uint16(s[i])|uint16(s[i+1])<<8]
		b := decPairs[uint16(s[i+2])|uint16(s[i+3])<<8]
		bad |= a | b
		v := uint32(a)<<12 | uint32(b)
		dst[o], dst[o+1], dst[o+2] = byte(v>>16), byte(v>>8), byte(v)
	}
	if bad&badPair != 0 {
		return base64.StdEncoding.DecodeString(s)
	}
	var last [4]byte
	n, err := base64.StdEncoding.Decode(dst[o:], append(last[:0], s[body:]...))
	if err != nil {
		return base64.StdEncoding.DecodeString(s)
	}
	return dst[:o+n], nil
}
