package counting

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestProductMatchesBigInt: the word-sized product equals a big.Int
// product factor by factor, on random lists mixing zeros, ones, small
// block sizes, factors near 2^32 and 2^63 and the largest words, and on
// long runs of small factors that cross the word boundary many times.
// The product is checked at random points and at the end of each list.
func TestProductMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	near := func(base uint64) uint64 { return base - 3 + uint64(rng.Intn(7)) }
	draw := func() uint64 {
		switch rng.Intn(8) {
		case 0:
			if rng.Intn(20) == 0 {
				return 0
			}
			return 1
		case 1:
			return near(1 << 32)
		case 2:
			return near(1 << 63)
		case 3:
			return math.MaxUint64 - uint64(rng.Intn(3))
		case 4:
			return rng.Uint64()
		default:
			return 1 + uint64(rng.Intn(4))
		}
	}
	var lists, flushes int
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(40)
		small := trial%4 == 0
		if small {
			n = 500 + rng.Intn(1500) // block sizes 2..4: a flush every 32-64 factors
		}
		p := newProduct()
		want, f := big.NewInt(1), new(big.Int)
		for i := 0; i < n; i++ {
			x := draw()
			if small {
				x = 2 + uint64(rng.Intn(3))
			}
			before := p.acc.BitLen()
			p.mul(x)
			if p.acc.BitLen() != before {
				flushes++
			}
			want.Mul(want, f.SetUint64(x))
			if p.zero() != (want.Sign() == 0) {
				t.Fatalf("trial %d, factor %d: zero() = %v for %s", trial, i, p.zero(), want)
			}
			// value flushes the word, so read it only now and then.
			if i == n-1 || rng.Intn(16) == 0 {
				if got := p.value(); got.Cmp(want) != 0 {
					t.Fatalf("trial %d, factor %d (%d): product %s, want %s", trial, i, x, got, want)
				}
			}
		}
		lists++
	}
	if flushes < 1000 {
		t.Errorf("%d lists flushed the word only %d times", lists, flushes)
	}
}

// TestProductEmpty: the empty product is 1, and value returns a copy
// the product does not write to again.
func TestProductEmpty(t *testing.T) {
	p := newProduct()
	if v := p.value(); v.Cmp(big.NewInt(1)) != 0 || p.zero() {
		t.Fatalf("empty product %s, zero %v", v, p.zero())
	}
	p.mul(6)
	v := p.value()
	p.mul(7)
	if v.Int64() != 6 || p.value().Int64() != 42 {
		t.Errorf("value aliases the product: %s, %s", v, p.value())
	}
}
