package main

import (
	"fmt"
	"time"

	"repro/internal/crypto/commitment"
	"repro/internal/crypto/mac"
	"repro/internal/crypto/share"
	"repro/internal/crypto/sig"
	"repro/internal/field"
	"repro/internal/ot"
	"repro/internal/rng"
)

// probeSubstrate times the substrate calls the protocols make, at the
// message sizes they use: ΠOpt-nSFE signs the 8-byte encoded output,
// the contract protocols commit to 8-byte encodings, ΠOpt-2SFE deals
// authenticated shares of one field element, and GMW AND gates run
// 1-of-2 OT on 1-byte messages. Each figure is the median ns/op over
// five batches.
func probeSubstrate(layers map[string]float64) error {
	r := rng.New(20150302)
	msg := field.New(0x0102030405).Bytes()
	vk, sk, err := sig.Gen(r)
	if err != nil {
		return err
	}
	sigma, err := sig.Sign(sk, msg)
	if err != nil {
		return err
	}
	key, err := mac.GenKey(r)
	if err != nil {
		return err
	}
	src := rng.NewSource(1)
	x := field.New(7)
	var failed error
	check := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	probes := []struct {
		name string
		n    int
		op   func(i int)
	}{
		{"sig.gen_ns", 100, func(int) { _, _, err := sig.Gen(r); check(err) }},
		{"sig.sign_ns", 100, func(int) { _, err := sig.Sign(sk, msg); check(err) }},
		{"sig.ver_ns", 100, func(int) {
			if !sig.Ver(vk, msg, sigma) {
				check(fmt.Errorf("sig: valid signature rejected"))
			}
		}},
		{"commitment.commit_ns", 2000, func(int) { _, _, err := commitment.Commit(r, msg); check(err) }},
		{"share.auth_deal_ns", 2000, func(i int) { _, _, err := share.AuthDeal(r, field.New(uint64(i))); check(err) }},
		{"mac.sign_ns", 20000, func(i int) { x = key.Sign(x) }},
		{"field.mul_ns", 100000, func(int) { x = x.Mul(x) }},
		{"ot.dealer_transfer_ns", 20000, func(i int) {
			_, err := ot.Dealer{}.Transfer(nil, [][]byte{{0}, {1}}, i&1)
			check(err)
		}},
		{"rng.seed_ns", 2000, func(i int) { src.Seed(int64(i)) }},
	}
	for _, p := range probes {
		var batches []float64
		for b := 0; b < 5; b++ {
			t0 := time.Now()
			for i := 0; i < p.n; i++ {
				p.op(i)
			}
			batches = append(batches, float64(time.Since(t0).Nanoseconds())/float64(p.n))
		}
		layers[p.name] = median(batches)
	}
	sinkElement = x
	if failed != nil {
		return fmt.Errorf("substrate probe: %w", failed)
	}
	return nil
}

// sinkElement keeps the chained field and MAC results live.
var sinkElement field.Element
