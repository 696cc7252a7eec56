package secidx

import (
	"math/rand"
	"testing"
)

func randColumn(n, sigma int, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]uint32, n)
	for i := range x {
		x[i] = uint32(rng.Intn(sigma))
	}
	return x
}

func bruteRange(x []uint32, lo, hi uint32) []int64 {
	var out []int64
	for i, v := range x {
		if v >= lo && v <= hi {
			out = append(out, int64(i))
		}
	}
	return out
}

func TestBuildAndQuery(t *testing.T) {
	x := randColumn(5000, 64, 1)
	ix, err := Build(x, 64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 5000 || ix.Sigma() != 64 {
		t.Fatalf("Len/Sigma = %d/%d", ix.Len(), ix.Sigma())
	}
	if ix.SizeBits() <= 0 {
		t.Fatal("SizeBits not positive")
	}
	res, stats, err := ix.Query(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteRange(x, 10, 20)
	if res.Card() != int64(len(want)) {
		t.Fatalf("card %d, want %d", res.Card(), len(want))
	}
	rows := res.Rows()
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("row %d = %d, want %d", i, rows[i], want[i])
		}
	}
	if stats.Reads == 0 {
		t.Fatal("query charged no I/Os")
	}
	if !res.Contains(want[0]) || res.Contains(int64(-1)) {
		t.Fatal("Contains wrong")
	}
}

func TestResultAlgebra(t *testing.T) {
	x := randColumn(3000, 32, 2)
	ix, err := Build(x, 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := ix.Query(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ix.Query(8, 23)
	if err != nil {
		t.Fatal(err)
	}
	in, err := a.Intersect(b)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(bruteRange(x, 8, 15))) != in.Card() {
		t.Fatalf("intersect card %d, want %d", in.Card(), len(bruteRange(x, 8, 15)))
	}
	un, err := a.Union(b)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(bruteRange(x, 0, 23))) != un.Card() {
		t.Fatalf("union card %d, want %d", un.Card(), len(bruteRange(x, 0, 23)))
	}
}

func TestApproxQueryAPI(t *testing.T) {
	x := randColumn(1<<14, 256, 3)
	ix, err := Build(x, 256, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := ix.ApproxQuery(30, 33, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range bruteRange(x, 30, 33) {
		if !res.Contains(i) {
			t.Fatalf("false negative at %d", i)
		}
	}
	rows, err := res.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(rows)) != res.CandidateCount() {
		t.Fatalf("Rows %d vs CandidateCount %d", len(rows), res.CandidateCount())
	}
}

func TestIntersectApproxAcrossColumns(t *testing.T) {
	n := 1 << 13
	colA := randColumn(n, 64, 4)
	colB := randColumn(n, 64, 5)
	ixA, err := Build(colA, 64, Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	ixB, err := Build(colB, 64, Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	ra, _, err := ixA.ApproxQuery(0, 15, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	rb, _, err := ixB.ApproxQuery(16, 31, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	both, err := IntersectApprox(ra, rb)
	if err != nil {
		t.Fatal(err)
	}
	inB := map[int64]bool{}
	for _, i := range bruteRange(colB, 16, 31) {
		inB[i] = true
	}
	for _, i := range bruteRange(colA, 0, 15) {
		if inB[i] && !both.Contains(i) {
			t.Fatalf("intersection misses true match %d", i)
		}
	}
}

func TestAppendIndexAPI(t *testing.T) {
	for _, buffered := range []bool{false, true} {
		x := randColumn(500, 16, 6)
		ix, err := BuildAppend(x, 16, Options{Buffered: buffered})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 2000; i++ {
			ch := uint32(rng.Intn(16))
			if _, err := ix.Append(ch); err != nil {
				t.Fatal(err)
			}
			x = append(x, ch)
		}
		res, _, err := ix.Query(4, 9)
		if err != nil {
			t.Fatal(err)
		}
		if res.Card() != int64(len(bruteRange(x, 4, 9))) {
			t.Fatalf("buffered=%v: card %d, want %d", buffered, res.Card(), len(bruteRange(x, 4, 9)))
		}
	}
}

func TestDynamicIndexAPI(t *testing.T) {
	x := randColumn(1000, 16, 8)
	ix, err := BuildDynamic(x, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	const gone = uint32(1 << 30)
	for i := 0; i < 500; i++ {
		switch rng.Intn(3) {
		case 0:
			j := rng.Int63n(int64(len(x)))
			ix.Delete(j)
			x[j] = gone
		case 1:
			ch := uint32(rng.Intn(16))
			ix.Append(ch)
			x = append(x, ch)
		default:
			j := rng.Int63n(int64(len(x)))
			if x[j] == gone {
				continue // deleted rows stay deleted
			}
			ch := uint32(rng.Intn(16))
			ix.Change(j, ch)
			x[j] = ch
		}
	}
	res, _, err := ix.Query(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, v := range x {
		if v <= 7 {
			want++
		}
	}
	if res.Card() != want {
		t.Fatalf("card %d, want %d", res.Card(), want)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, 0, Options{}); err == nil {
		t.Fatal("sigma=0 accepted")
	}
	if _, err := Build([]uint32{5}, 4, Options{}); err == nil {
		t.Fatal("out-of-alphabet value accepted")
	}
	if _, err := BuildAppend(nil, 0, Options{}); err == nil {
		t.Fatal("append sigma=0 accepted")
	}
	if _, err := BuildDynamic(nil, 0, Options{}); err == nil {
		t.Fatal("dynamic sigma=0 accepted")
	}
}

func TestDynamicLivePositions(t *testing.T) {
	x := randColumn(200, 8, 21)
	ix, err := BuildDynamic(x, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int64{5, 50, 100} {
		if _, err := ix.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	if ix.LiveLen() != 197 {
		t.Fatalf("LiveLen = %d", ix.LiveLen())
	}
	// Raw 60 has 2 deletions before it.
	pos, live, err := ix.RawToLive(60)
	if err != nil || !live || pos != 58 {
		t.Fatalf("RawToLive(60) = %d,%v,%v", pos, live, err)
	}
	_, live, err = ix.RawToLive(50)
	if err != nil || live {
		t.Fatalf("RawToLive(50) live=%v err=%v", live, err)
	}
	raw, err := ix.LiveToRaw(58)
	if err != nil || raw != 60 {
		t.Fatalf("LiveToRaw(58) = %d, %v", raw, err)
	}
	// Deleted rows cannot be changed back.
	if _, err := ix.Change(50, 1); err == nil {
		t.Fatal("change of deleted row accepted")
	}
}

// TestDynamicDeleteAfterManyAppends grows a dynamic index far past the rows
// it was built over and then deletes across the grown range: the position
// translator's leaves, sized for the initial rows, must still fit their
// blocks.
func TestDynamicDeleteAfterManyAppends(t *testing.T) {
	x := randColumn(16, 4, 35)
	ix, err := BuildDynamic(x, 4, Options{BlockBits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		ch := uint32(i % 4)
		if _, err := ix.Append(ch); err != nil {
			t.Fatal(err)
		}
		x = append(x, ch)
	}
	var deleted int64
	for p := int64(0); p < ix.Len(); p += 331 {
		if _, err := ix.Delete(p); err != nil {
			t.Fatalf("Delete(%d): %v", p, err)
		}
		x[p] = 4
		deleted++
	}
	if got, want := ix.LiveLen(), ix.Len()-deleted; got != want {
		t.Fatalf("LiveLen = %d, want %d", got, want)
	}
	res, _, err := ix.Query(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(bruteRange(x, 1, 2))); res.Card() != want {
		t.Fatalf("card %d, want %d", res.Card(), want)
	}
}
