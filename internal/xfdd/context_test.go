package xfdd

import (
	"math/rand"
	"runtime"
	"testing"

	"snap/internal/pkt"
	"snap/internal/values"
)

// TestContextExtendIsConstant: recording a failed field-value test costs the
// same objects and the same bytes on top of a chain of 8 failed tests on the
// field as on top of 256. A port test chain (one test per port) extends such
// chains once per false edge, so a cost that grew with the chain would make
// composition quadratic in the port count.
func TestContextExtendIsConstant(t *testing.T) {
	test := FVTest{Field: pkt.DstPort, Val: values.Int(99999)}
	chain := func(depth int) *Context {
		c := NewContext()
		for i := 0; i < depth; i++ {
			c = c.extend(FVTest{Field: pkt.DstPort, Val: values.Int(int64(i))}, false)
		}
		if out, known := c.Infer(FVTest{Field: pkt.DstPort, Val: values.Int(0)}); !known || out {
			t.Fatalf("depth %d: the oldest failed test is not recorded", depth)
		}
		return c
	}
	cost := func(depth int) (objects, bytes float64) {
		c := chain(depth)
		objects = testing.AllocsPerRun(100, func() { c.extend(test, false) })
		const runs = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			c.extend(test, false)
		}
		runtime.ReadMemStats(&after)
		return objects, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	shortObjs, shortBytes := cost(8)
	longObjs, longBytes := cost(256)
	t.Logf("one extension: %.0f objects, %.0f B at depth 8; %.0f objects, %.0f B at depth 256",
		shortObjs, shortBytes, longObjs, longBytes)
	if longObjs != shortObjs {
		t.Errorf("objects per extension: %.0f at depth 256, %.0f at depth 8", longObjs, shortObjs)
	}
	if longBytes > shortBytes+1 {
		t.Errorf("bytes per extension: %.0f at depth 256, %.0f at depth 8", longBytes, shortBytes)
	}
}

// TestNegIndexKeepsEveryRefutation: the match-shape index of a failed-test
// list never rules out a query that some test on the list subsumes, for
// integers, addresses and prefixes of every length mixed on one list.
func TestNegIndexKeepsEveryRefutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	value := func() values.Value {
		addr := uint32(10<<24 | rng.Intn(4)<<16 | rng.Intn(4)<<8 | rng.Intn(4))
		switch rng.Intn(4) {
		case 0:
			return values.Int(int64(rng.Intn(8)))
		case 1:
			return values.Bool(rng.Intn(2) == 0)
		case 2:
			return values.IP(addr)
		default:
			return values.Prefix(addr, uint8(rng.Intn(33)))
		}
	}
	refuted := 0
	for trial := 0; trial < 2000; trial++ {
		heads := new([pkt.NumFields]*negFact)
		for i := rng.Intn(12); i >= 0; i-- {
			heads = withNeg(heads, pkt.DstIP, value())
		}
		head := heads[pkt.DstIP]
		for i := 0; i < 20; i++ {
			q := value()
			for w := head; w != nil; w = w.older {
				if w.val.Subsumes(q) {
					refuted++
					if !head.mayRefute(q) {
						t.Fatalf("failed test %v subsumes %v, but the index rules the list out", w.val, q)
					}
					break
				}
			}
		}
	}
	if refuted == 0 {
		t.Fatal("no query was refuted; the test exercises nothing")
	}
}
