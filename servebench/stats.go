package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"

	"ciphermatch/internal/proto"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
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

func mean(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// inputsDigest hashes everything the workload sends the program: every
// encrypted table version, every query payload, and the first ops
// operations of every connection's sequence.
func (d *deployment) inputsDigest(ops int) string {
	h := sha256.New()
	for ti, t := range d.in.tenants {
		for _, edb := range d.dbs[ti] {
			h.Write(proto.EncodeDB(edb, params))
		}
		for _, q := range d.queries[ti] {
			h.Write(proto.EncodeNamedQuery(t.name, q, params))
		}
	}
	for c := 0; c < d.in.conns; c++ {
		next := d.in.opStream(c)
		for i := 0; i < ops; i++ {
			fmt.Fprintf(h, "%d:%v;", c, next())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
