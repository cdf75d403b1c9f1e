package main

import (
	"fmt"
	"io"

	"rattrap/internal/experiments"
)

// runReshard runs the live kill-one-add-one membership sweep. The
// report's three headline properties are gates: full availability
// through the crash, post-event rate within 10% of the pre-event rate,
// and a join that moved strictly fewer bytes than the entries' full size
// (chunk-level dedup working).
func runReshard(w io.Writer, seed int64) (any, error) {
	rep, err := experiments.RunReshard(experiments.DefaultReshardConfig(seed))
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "reshard: %d/%d ok (%d retries, %d shard-down), p99 %.0f ms\n",
		rep.Succeeded, rep.Requests, rep.Retries, rep.ShardDownRetries, rep.P99Millis)
	fmt.Fprintf(w, "rate: pre %.1f req/s, post %.1f req/s (recovery %.2f)\n",
		rep.PreReqS, rep.PostReqS, rep.RecoveryRatio)
	fmt.Fprintf(w, "membership: epoch %d, %d live shards; join moved %d entries, %d/%d delta/full bytes, %d replica copies, %d repaired\n",
		rep.Epoch, rep.LiveShards, rep.EntriesMoved, rep.DeltaBytes, rep.FullBytes, rep.ReplicaCopies, rep.Repaired)

	if rep.Succeeded != rep.Requests {
		return rep, fmt.Errorf("%d of %d requests failed despite retries", rep.Requests-rep.Succeeded, rep.Requests)
	}
	if rep.RecoveryRatio < 0.9 {
		return rep, fmt.Errorf("post-event rate %.1f req/s is below 90%% of pre-event %.1f req/s (ratio %.2f)",
			rep.PostReqS, rep.PreReqS, rep.RecoveryRatio)
	}
	if rep.EntriesMoved == 0 {
		return rep, fmt.Errorf("the join migrated nothing; the delta gate proved nothing")
	}
	if rep.DeltaBytes >= rep.FullBytes {
		return rep, fmt.Errorf("join moved %d delta bytes vs %d full bytes: chunk dedup is not saving transfer",
			rep.DeltaBytes, rep.FullBytes)
	}
	if rep.Epoch < 2 || rep.LiveShards != rep.Shards {
		return rep, fmt.Errorf("membership did not converge: epoch %d, %d live shards (want %d)",
			rep.Epoch, rep.LiveShards, rep.Shards)
	}
	return rep, nil
}
