package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// inputHasher digests every generated input so that two runs can be shown
// to have measured the same inputs.
type inputHasher struct{ h hash.Hash }

func newInputHasher() *inputHasher { return &inputHasher{h: sha256.New()} }

// add frames each part with its length so that no two part lists collide.
func (x *inputHasher) add(parts ...string) {
	for _, p := range parts {
		fmt.Fprintf(x.h, "%d:%s", len(p), p)
	}
}

func (x *inputHasher) sum() string { return hex.EncodeToString(x.h.Sum(nil))[:16] }

// newRand returns the workload's deterministic generator for a seed and a
// stream name, so that adding a draw to one stream never shifts another.
func newRand(seed int64, stream string) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", seed, stream)))
	var v int64
	for _, b := range h[:8] {
		v = v<<8 | int64(b)
	}
	return rand.New(rand.NewSource(v))
}
