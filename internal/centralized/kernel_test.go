package centralized

import (
	"sync"
	"testing"

	"github.com/distributed-uniformity/dut/internal/dist"
)

// histogramCount is the O(q + n) reference the pooled kernel must
// reproduce: a fresh histogram, then sum_i C(c_i, 2). It returns the
// kernel's expected result, including the wrapped dist error for an
// out-of-range sample.
func histogramCount(samples []int, n int) (int64, string) {
	if len(samples) == 0 {
		return 0, ""
	}
	h, err := dist.Histogram(samples, n)
	if err != nil {
		return 0, "centralized: " + err.Error()
	}
	c, err := CollisionCountFromHistogram(h)
	if err != nil {
		return 0, "reference: " + err.Error()
	}
	return c, ""
}

// checkKernel runs CollisionCount and compares value and error text
// against histogramCount.
func checkKernel(t *testing.T, samples []int, n int) {
	t.Helper()
	want, wantErr := histogramCount(samples, n)
	got, err := CollisionCount(samples, n)
	gotErr := ""
	if err != nil {
		gotErr = err.Error()
	}
	if got != want || gotErr != wantErr {
		t.Fatalf("CollisionCount(%v, %d) = %d, %q; histogram reference %d, %q", samples, n, got, gotErr, want, wantErr)
	}
}

// FuzzCollisionCount checks the pooled O(q) kernel against the
// histogram reference on arbitrary sample vectors, in-range or not:
// same count, same error text. Every input runs twice, the second time
// with the out-of-range samples dropped, so a failed call that left
// dirty counters in the pool shows up as a wrong count on the clean
// call that follows it.
func FuzzCollisionCount(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 0, 3})
	f.Add(uint8(1), []byte{0, 0, 0, 0, 0})
	f.Add(uint8(3), []byte{0, 1, 2, 0, 1, 2, 0, 1, 2, 0})
	f.Add(uint8(4), []byte{0, 0, 1, 5, 1})
	f.Add(uint8(8), []byte{0xff, 2})
	f.Add(uint8(0), []byte{0})
	f.Add(uint8(200), []byte{})
	f.Fuzz(func(t *testing.T, nb uint8, raw []byte) {
		n := int(nb)
		samples := make([]int, len(raw))
		for i, b := range raw {
			samples[i] = int(int8(b)) // negatives and values past n exercise the error path
		}
		checkKernel(t, samples, n)
		clean := samples[:0:0]
		for _, s := range samples {
			if s >= 0 && s < n {
				clean = append(clean, s)
			}
		}
		checkKernel(t, clean, n)
	})
}

// TestCollisionCountEdgeCases pins the kernel's corners: empty input,
// more samples than elements, the one-element domain, and a failed call
// followed by clean calls on the same pooled counters.
func TestCollisionCountEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name    string
		samples []int
		n       int
		want    int64
	}{
		{"nil samples", nil, 8, 0},
		{"empty samples", []int{}, 1, 0},
		{"q > n", []int{0, 1, 2, 0, 1, 2, 0}, 3, 3 + 1 + 1},
		{"n = 1", []int{0, 0, 0, 0}, 1, 6},
		{"n = 1, one sample", []int{0}, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := CollisionCount(tc.samples, tc.n)
			if err != nil || got != tc.want {
				t.Fatalf("CollisionCount = %d, %v; want %d", got, err, tc.want)
			}
			checkKernel(t, tc.samples, tc.n)
		})
	}
	t.Run("failed call then clean call", func(t *testing.T) {
		for i := 0; i < 50; i++ {
			// The failure lands after three counters were incremented.
			_, err := CollisionCount([]int{0, 0, 1, 5, 1}, 4)
			if want := "centralized: dist: sample 5 outside domain of size 4"; err == nil || err.Error() != want {
				t.Fatalf("error = %v, want %q", err, want)
			}
			if got, err := CollisionCount([]int{0, 1, 2, 3}, 4); err != nil || got != 0 {
				t.Fatalf("clean call after a failure = %d, %v; want 0 (dirty pooled counters)", got, err)
			}
		}
	})
	t.Run("negative sample", func(t *testing.T) {
		if _, err := CollisionCount([]int{1, -1}, 4); err == nil {
			t.Fatal("negative sample accepted")
		}
		checkKernel(t, []int{1, -1}, 4)
	})
}

// TestCollisionCountConcurrent runs the kernel from many goroutines at
// once over mixed domain sizes, failures included; under -race it also
// checks that pooled counters are never shared between live calls.
func TestCollisionCountConcurrent(t *testing.T) {
	domains := []int{1, 7, 64, 4096}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := testRand(uint64(100 + g))
			for iter := 0; iter < 200; iter++ {
				n := domains[rng.IntN(len(domains))]
				samples := make([]int, rng.IntN(3*n+8))
				for i := range samples {
					samples[i] = rng.IntN(n)
				}
				if len(samples) > 0 && iter%5 == 0 {
					samples[rng.IntN(len(samples))] = n // out of range
				}
				want, wantErr := histogramCount(samples, n)
				got, err := CollisionCount(samples, n)
				gotErr := ""
				if err != nil {
					gotErr = err.Error()
				}
				if got != want || gotErr != wantErr {
					t.Errorf("goroutine %d: CollisionCount over n=%d = %d, %q; want %d, %q", g, n, got, gotErr, want, wantErr)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCollisionCountZeroAllocs holds the kernel to zero allocations in
// steady state at the E1 shape; a pool miss after a GC is the only
// allocation it may make. Skipped under the race detector, whose
// instrumentation allocates and whose sync.Pool drops items at random.
func TestCollisionCountZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const n, q = 4096, 322
	rng := testRand(7)
	samples := make([]int, q)
	for i := range samples {
		samples[i] = rng.IntN(n)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := CollisionCount(samples, n); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("CollisionCount allocates %.1f per call, want 0", allocs)
	}
}
