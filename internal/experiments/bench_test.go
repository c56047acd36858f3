package experiments

import (
	"testing"

	"branchsim/internal/pipeline"
	"branchsim/internal/workload"
)

// BenchmarkTimingColumn measures the timing engine as a cold run of
// Figures 2, 7 and 8 drives it: one benchmark's timing cells at the
// figures' run length of 125K instructions (cmd/reproduce's timing-cold
// command), collapsed and split into passes of at most maxTimingLanes as
// the planner does, each pass's lanes built from one set of parts
// (timingLanes) and run straight off the generator. It reports
// ns/lane-inst: timed wall time per simulated lane-instruction.
// Predictor construction is left out of the timer; generation is in it,
// as it is in a pass.
//
//	go test -run '^$' -bench TimingColumn -count 5 ./internal/experiments
func BenchmarkTimingColumn(b *testing.B) {
	const bench = "176.gcc"
	rp, err := Plan([]string{"figure2", "figure7", "figure8"}, Options{Insts: 125_000})
	if err != nil {
		b.Fatal(err)
	}
	opts := rp.plan.opts
	var passes [][]timingSpec
	for _, g := range groupLanes(collapse(rp.plan.tim), maxTimingLanes, timingGroupKey) {
		if g[0].spec.prof.Name != bench {
			continue
		}
		ss := make([]timingSpec, len(g))
		for i, l := range g {
			ss[i] = l.spec
		}
		passes = append(passes, ss)
	}
	if len(passes) == 0 {
		b.Fatalf("no timing pass for %s", bench)
	}
	var laneInsts int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ss := range passes {
			b.StopTimer()
			lanes := timingLanes(ss)
			b.StartTimer()
			pipeline.RunMany(lanes, workload.New(ss[0].prof), nil, opts.Insts, opts.Warmup)
			laneInsts += int64(len(lanes)) * opts.Insts
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(laneInsts), "ns/lane-inst")
}
