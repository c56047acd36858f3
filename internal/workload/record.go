package workload

import "branchsim/internal/trace"

// Record materializes a profile's deterministic stream: it instantiates the
// synthetic program and records its first maxInsts instructions. The
// recording is a pure function of (prof, maxInsts); replaying it is
// bit-identical to streaming a fresh New(prof), which the equivalence tests
// in this package (replay_test.go) enforce.
func Record(prof Profile, maxInsts int64) *trace.Recording {
	return trace.Record(New(prof), maxInsts)
}
