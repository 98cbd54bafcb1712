package async

// Direct tests of the shared visibility rule (view.go): the staleness
// gate and the earliest-unseen-version scan, driven against a real
// Store and hand-built partition views rather than through whole runs.

import (
	"testing"

	"repro/internal/simtime"
)

// ruleStore builds the store the rule tests read. Partition 0 is the
// reader; its neighbors have these histories (version@visible-time):
//
//	1: v0@0 v1@10 v2@20
//	2: v0@0 v1@30
//	3: v0@0
func ruleStore(t *testing.T) *Store[int] {
	t.Helper()
	st := NewStore[int](4)
	pubs := []struct {
		p, v int
		at   simtime.Duration
	}{
		{0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {3, 0, 0},
		{1, 1, 10}, {1, 2, 20}, {2, 1, 30},
	}
	for _, pb := range pubs {
		if err := st.Publish(pb.p, pb.v, pb.at, pb.v); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// ruleViews returns views for the four partitions of ruleStore, with
// partition 0 reading nbrs at publication counter version, having
// consumed the given versions (nil = nothing yet).
func ruleViews(nbrs []int, version int, consumed []int) []*partView {
	views := make([]*partView, 4)
	for p := range views {
		views[p] = &partView{}
	}
	v := views[0]
	v.neighbors = nbrs
	v.version = version
	v.cursors = make([]int, len(nbrs))
	v.consumed = make([]int, len(nbrs))
	for j := range v.consumed {
		v.consumed[j] = -1
		if consumed != nil {
			v.consumed[j] = consumed[j]
		}
	}
	return views
}

func TestGateCheckRule(t *testing.T) {
	cases := []struct {
		name    string
		nbrs    []int
		version int
		bound   int
		at      simtime.Duration
		settle  func(views []*partView)
		wantQ   int
		wantNb  int
		wantAt  simtime.Duration
		wait    bool
	}{
		{name: "need<=0 passes", nbrs: []int{3}, version: 2, bound: 2, at: 0, wantQ: -1, wantNb: -1},
		{name: "need<0 passes", nbrs: []int{3}, version: 1, bound: 5, at: 0, wantQ: -1, wantNb: -1},
		{name: "idle neighbor skipped", nbrs: []int{3}, version: 1, bound: 0, at: 0,
			settle: func(views []*partView) { views[3].idle = true }, wantQ: -1, wantNb: -1},
		{name: "forced neighbor skipped", nbrs: []int{3}, version: 1, bound: 0, at: 0,
			settle: func(views []*partView) { views[3].forced = true }, wantQ: -1, wantNb: -1},
		{name: "visible version meets need", nbrs: []int{1}, version: 2, bound: 0, at: 25, wantQ: -1, wantNb: -1},
		{name: "visible version exceeds need", nbrs: []int{1}, version: 2, bound: 1, at: 20, wantQ: -1, wantNb: -1},
		{name: "published not yet visible wakes at its At", nbrs: []int{1}, version: 2, bound: 0, at: 15,
			wantQ: -1, wantNb: 1, wantAt: 20, wait: true},
		{name: "unpublished blocks on neighbor", nbrs: []int{3}, version: 1, bound: 0, at: 100,
			wantQ: 3, wantNb: 3, wait: true},
		{name: "first unmet neighbor in order decides", nbrs: []int{1, 2, 3}, version: 1, bound: 0, at: 15,
			wantQ: -1, wantNb: 2, wantAt: 30, wait: true},
		{name: "settled laggard skipped, active one waits", nbrs: []int{3, 2}, version: 1, bound: 0, at: 15,
			settle: func(views []*partView) { views[3].idle = true }, wantQ: -1, wantNb: 2, wantAt: 30, wait: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := ruleStore(t)
			views := ruleViews(tc.nbrs, tc.version, nil)
			if tc.settle != nil {
				tc.settle(views)
			}
			q, nb, wakeAt, wait := gateCheck(st, views, views[0], tc.at, tc.bound)
			if q != tc.wantQ || nb != tc.wantNb || wait != tc.wait || (wait && q < 0 && wakeAt != tc.wantAt) {
				t.Fatalf("gateCheck = (q=%d nb=%d wakeAt=%v wait=%v), want (q=%d nb=%d wakeAt=%v wait=%v)",
					q, nb, wakeAt, wait, tc.wantQ, tc.wantNb, tc.wantAt, tc.wait)
			}
		})
	}
}

// TestGateCheckAdvancesCursors: a passing gate leaves each active
// neighbor's cursor on the version visible at the gate time, the hint
// the canonical input read then starts from.
func TestGateCheckAdvancesCursors(t *testing.T) {
	st := ruleStore(t)
	views := ruleViews([]int{1, 2}, 1, nil)
	if _, _, _, wait := gateCheck(st, views, views[0], 35, 0); wait {
		t.Fatal("gate waited with every needed version visible")
	}
	if got := views[0].cursors; got[0] != 2 || got[1] != 1 {
		t.Fatalf("cursors %v after a gate at t=35, want [2 1]", got)
	}
}

func TestFirstUnseenRule(t *testing.T) {
	cases := []struct {
		name     string
		nbrs     []int
		consumed []int
		wantAt   simtime.Duration
		unseen   bool
	}{
		{name: "nothing consumed yet sees version 0", nbrs: []int{3}, consumed: nil, wantAt: 0, unseen: true},
		{name: "all consumed", nbrs: []int{1, 2, 3}, consumed: []int{2, 1, 0}},
		{name: "earliest across neighbors", nbrs: []int{1, 2}, consumed: []int{0, 0}, wantAt: 10, unseen: true},
		{name: "earliest is next version, not latest", nbrs: []int{2, 1}, consumed: []int{0, 1}, wantAt: 20, unseen: true},
		{name: "later neighbor earliest", nbrs: []int{2, 1, 3}, consumed: []int{0, 2, 0}, wantAt: 30, unseen: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			views := ruleViews(tc.nbrs, 0, tc.consumed)
			at, unseen := firstUnseen(ruleStore(t), views[0])
			if unseen != tc.unseen || (unseen && at != tc.wantAt) {
				t.Fatalf("firstUnseen = (%v, %v), want (%v, %v)", at, unseen, tc.wantAt, tc.unseen)
			}
		})
	}
}
