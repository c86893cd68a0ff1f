package elements

import (
	"routebricks/internal/pkt"
	"testing"

	"routebricks/internal/click"
	"routebricks/internal/exec"
)

func TestREDPhases(t *testing.T) {
	q := exec.NewRing(256)
	red := NewRED(q, 10, 50, 0.5, 1)
	red.Weight = 1 // follow instantaneous occupancy for a deterministic test
	c := newCapture()
	wireOut(red, 0, c, 0)
	wireOut(red, 1, c, 1)
	ctx := &click.Context{}

	// Empty queue: everything passes.
	for i := 0; i < 100; i++ {
		red.Push(ctx, 0, testPacket(64, "10.0.0.2"))
	}
	if passed, drops := red.Stats(); passed != 100 || drops != 0 {
		t.Fatalf("empty-queue phase: %d/%d", passed, drops)
	}

	// Fill beyond MaxThresh: everything early-drops.
	for i := 0; i < 60; i++ {
		q.Push(testPacket(64, "10.0.0.2"))
	}
	for i := 0; i < 100; i++ {
		red.Push(ctx, 0, testPacket(64, "10.0.0.2"))
	}
	if _, drops := red.Stats(); drops != 100 {
		t.Fatalf("above MaxThresh: drops = %d, want 100", drops)
	}

	// Between thresholds: drop fraction approximates the RED curve.
	q2 := exec.NewRing(256)
	for i := 0; i < 30; i++ { // avg 30 → prob = 0.5·(30-10)/40 = 0.25
		q2.Push(testPacket(64, "10.0.0.2"))
	}
	red2 := NewRED(q2, 10, 50, 0.5, 2)
	red2.Weight = 1
	d := &Discard{}
	red2.SetOutput(0, func(ctx *click.Context, p *pkt.Packet) { d.Push(ctx, 0, p) })
	red2.SetOutput(1, func(ctx *click.Context, p *pkt.Packet) {})
	for i := 0; i < 20000; i++ {
		red2.Push(ctx, 0, testPacket(64, "10.0.0.2"))
	}
	_, drops := red2.Stats()
	frac := float64(drops) / 20000
	if frac < 0.20 || frac > 0.30 {
		t.Fatalf("mid-range drop fraction = %.3f, want ≈0.25", frac)
	}
}

func TestShaperPolices(t *testing.T) {
	// 8 Mbps, 2000-byte burst: at 1000-byte packets, steady state passes
	// one packet per millisecond.
	sh := NewShaper(8e6, 2000)
	c := newCapture()
	wireOut(sh, 0, c, 0)
	wireOut(sh, 1, c, 1)
	now := int64(0)
	ctx := &click.Context{NowNS: func() int64 { return now }}

	// Burst: the first two pass on the initial bucket, the rest exceed.
	for i := 0; i < 10; i++ {
		sh.Push(ctx, 0, testPacket(1000, "10.0.0.2"))
	}
	passed, excess := sh.Stats()
	if passed != 2 || excess != 8 {
		t.Fatalf("burst: passed %d excess %d, want 2/8", passed, excess)
	}

	// Paced at the token rate: all conform.
	for i := 0; i < 20; i++ {
		now += 1_000_000 // 1 ms → 1000 bytes of tokens
		sh.Push(ctx, 0, testPacket(1000, "10.0.0.2"))
	}
	passed2, excess2 := sh.Stats()
	if passed2 != 22 || excess2 != 8 {
		t.Fatalf("paced: passed %d excess %d, want 22/8", passed2, excess2)
	}
}
