package faults

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"rattrap/internal/sim"
)

func TestEveryRuleFiresDeterministically(t *testing.T) {
	in := New(Plan{Name: "t", Rules: []Rule{
		{Site: SiteUpload, Kind: Drop, Every: 3},
	}})
	var got []bool
	for i := 0; i < 9; i++ {
		got = append(got, in.Apply(nil, SiteUpload, "phone-1", 100) != nil)
	}
	want := []bool{false, false, true, false, false, true, false, false, true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fire pattern = %v, want %v", got, want)
	}
}

func TestAfterAndMaxHits(t *testing.T) {
	in := New(Plan{Rules: []Rule{
		{Site: SiteBoot, Kind: Drop, Every: 1, After: 2, MaxHits: 2},
	}})
	var got []bool
	for i := 0; i < 6; i++ {
		got = append(got, in.Apply(nil, SiteBoot, "cac-1", 0) != nil)
	}
	want := []bool{false, false, true, true, false, false}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fire pattern = %v, want %v", got, want)
	}
}

func TestSitePrefixAndTargetMatch(t *testing.T) {
	in := New(Plan{Rules: []Rule{
		{Site: "net.", Target: "phone-2", Kind: Disconnect, Every: 1},
	}})
	if err := in.Apply(nil, SiteDownload, "phone-1", 10); err != nil {
		t.Fatalf("rule fired for wrong target: %v", err)
	}
	if err := in.Apply(nil, SiteFSWrite, "phone-2", 10); err != nil {
		t.Fatalf("rule fired for wrong site: %v", err)
	}
	err := in.Apply(nil, SiteConnect, "phone-2", 10)
	var fe *Error
	if !errors.As(err, &fe) || fe.Kind != Disconnect {
		t.Fatalf("err = %v, want disconnect fault", err)
	}
	if !IsTransient(err) {
		t.Fatal("fault errors must be transient")
	}
	if IsTransient(errors.New("boring")) {
		t.Fatal("plain errors must not be transient")
	}
	if !IsTransient(fmt.Errorf("wrapped: %w", err)) {
		t.Fatal("wrapped fault errors must stay transient")
	}
}

func TestStallSleepsVirtualTime(t *testing.T) {
	e := sim.NewEngine(1)
	in := New(Plan{Rules: []Rule{
		{Site: SiteUpload, Kind: Stall, Every: 2, Stall: 700 * time.Millisecond},
	}})
	var first, second sim.Time
	e.Spawn("t", func(p *sim.Proc) {
		if err := in.Apply(p, SiteUpload, "d", 1); err != nil {
			t.Errorf("stall returned error: %v", err)
		}
		first = e.Now()
		if err := in.Apply(p, SiteUpload, "d", 1); err != nil {
			t.Errorf("stall returned error: %v", err)
		}
		second = e.Now()
	})
	e.Run()
	if first != 0 {
		t.Fatalf("first op stalled at %v, want no stall", first)
	}
	if second != sim.Time(700*time.Millisecond) {
		t.Fatalf("second op ended at %v, want 700ms stall", second)
	}
}

func TestProbabilisticRulesAreSeedStable(t *testing.T) {
	run := func() []bool {
		in := New(Plan{Seed: 99, Rules: []Rule{
			{Site: SiteUpload, Kind: Drop, P: 0.3},
		}})
		var got []bool
		for i := 0; i < 50; i++ {
			got = append(got, in.Apply(nil, SiteUpload, "d", 1) != nil)
		}
		return got
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fault sequences")
	}
	fired := 0
	for _, f := range a {
		if f {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("P=0.3 fired %d/%d times: degenerate", fired, len(a))
	}
}

func TestStatsAccounting(t *testing.T) {
	in := New(Plan{Rules: []Rule{
		{Site: SiteUpload, Kind: Drop, Every: 2},
		{Site: SiteUpload, Kind: Stall, Every: 3},
	}})
	for i := 0; i < 6; i++ {
		in.Apply(nil, SiteUpload, "d", 1)
	}
	st := in.Stats()
	if st[SiteUpload+":drop"] != 3 || st[SiteUpload+":stall"] != 2 {
		t.Fatalf("stats = %v, want 3 drops and 2 stalls", st)
	}
}
