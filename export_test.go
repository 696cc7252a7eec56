package secidx

// Hooks into the handles' internals for the package's tests.

// remembered returns how many exact members the plans of r read across the
// handle's shards, and how many of them the shards' validation memos vouch
// for, which a stable query on r replays without a scan.
func (ix *static) remembered(r Range) (read, known int, err error) {
	for _, p := range ix.sx.Parts() {
		plan, _, err := p.Ax.PlanQuery(r)
		if err != nil {
			return 0, 0, err
		}
		for _, c := range plan.Chunks {
			read += c.J - c.I
		}
		known += p.Ax.Remembered(plan)
	}
	return read, known, nil
}
