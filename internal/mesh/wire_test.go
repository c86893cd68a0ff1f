package mesh

import (
	"bytes"
	"testing"
	"time"
)

// FuzzDecode feeds arbitrary datagrams to the control-port decoder, as
// stray traffic on the port would. Decode must never panic; every
// datagram it accepts must re-encode to the same bytes (the format has
// no slack a forger could hide in); and an accepted message — whatever
// member ID, incarnation or timestamp it claims — must fold into the
// tracker without panicking, the way the receive loop folds it.
func FuzzDecode(f *testing.F) {
	f.Add(Encode(Message{Kind: MsgPing, From: 1, Incarnation: 7, Gen: 2, Seq: 9, SentNanos: 1e9}))
	f.Add(Encode(Message{Kind: MsgAck, From: 2, Incarnation: 8, Gen: 3, Seq: 9, SentNanos: -1}))
	f.Add(Encode(Message{Kind: MsgPing, From: 0xFFFF, Incarnation: 1}))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			return
		}
		if re := Encode(m); !bytes.Equal(re, b) {
			t.Fatalf("Decode(%x) = %+v re-encodes to %x", b, m, re)
		}
		c := newClock()
		tr := testTracker(c)
		now := c.advance(time.Millisecond)
		tr.Observe(m.From, m, now)
		tr.ObserveRTT(m.From, time.Duration(now.UnixNano()-m.SentNanos))
		tr.Tick(c.advance(time.Second))
	})
}
