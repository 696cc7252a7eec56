package cbitmap

// concatArm is BenchmarkOrderedConcat's merge: one Member per span, in place
// in a reused slice, and the kernel over them — what core's executor does
// with an ordered plan.
type concatArm struct {
	ms []Member
}

func (a *concatArm) run(n int64, sp *memberSpans) (*Bitmap, error) {
	a.ms = a.ms[:0]
	for i := range sp.starts {
		a.ms = append(a.ms, Member{})
		if err := a.ms[i].Init(sp.rd, sp.starts[i], sp.lens[i], sp.cards[i], sp.lasts[i], sp.k); err != nil {
			return nil, err
		}
	}
	return Concat(n, a.ms)
}
