package fault

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/config"
)

func TestPlanTextRoundTrip(t *testing.T) {
	p := Plan{
		Events: []Event{
			{At: 10 * time.Second, Site: 0, Kind: Slowdown, Factor: 4},
			{At: 30 * time.Second, Site: 1, Kind: Crash},
			{At: 40 * time.Second, Site: 0, Kind: Recover},
			{At: 50 * time.Second, Site: 1, Worker: 2, Kind: Partition},
		},
		RestartAfter: 10 * time.Second,
		Tuning: config.Tuning{CheckpointEveryJobs: 100, LeaseTTL: 5 * time.Second,
			SpeculateAfter: 20 * time.Second},
	}
	got, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", p.String(), err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

func TestParsePlanCommentsAndSorting(t *testing.T) {
	p, err := ParsePlan("# a drill\nat=30s site=1 kind=crash\n\nat=10s site=0 kind=crash\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 2 || p.Events[0].At != 10*time.Second {
		t.Fatalf("events not sorted by At: %+v", p.Events)
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{Events: []Event{{At: -time.Second, Kind: Crash}}},
		{Events: []Event{{At: 0, Site: -1, Kind: Crash}}},
		{Events: []Event{{At: 0, Kind: Slowdown, Factor: 1}}},
		{Events: []Event{{At: 0, Kind: Kind(99)}}},
		{Events: []Event{{At: time.Second, Kind: Crash}, {At: 0, Kind: Crash}}},
		{Tuning: config.Tuning{CheckpointEveryJobs: -1}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d: Validate() = nil, want error", i)
		}
	}
	if err := (Plan{}).Validate(); err != nil {
		t.Errorf("zero plan: %v", err)
	}
}

func TestPlanActive(t *testing.T) {
	if (Plan{}).Active() {
		t.Error("zero plan reports active")
	}
	if !(Plan{Tuning: config.Tuning{CheckpointEveryJobs: 1}}).Active() {
		t.Error("checkpointing plan reports inactive")
	}
	if !(Plan{Events: []Event{{Kind: Crash}}}).Active() {
		t.Error("plan with events reports inactive")
	}
}

func TestRandomPlanDeterministic(t *testing.T) {
	a := RandomPlan(7, 5, time.Minute, []int{0, 1})
	b := RandomPlan(7, 5, time.Minute, []int{0, 1})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	c := RandomPlan(8, 5, time.Minute, []int{0, 1})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, e := range a.Events {
		if e.At < 0 || e.At >= time.Minute {
			t.Fatalf("event outside horizon: %+v", e)
		}
	}
}

func TestLeases(t *testing.T) {
	l := NewLeases(5 * time.Second)
	l.Renew(0, 0)
	l.Renew(1, 0)
	if got := l.Expired(4 * time.Second); got != nil {
		t.Fatalf("Expired(4s) = %v, want none", got)
	}
	l.Renew(1, 4*time.Second)
	if got := l.Expired(6 * time.Second); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Expired(6s) = %v, want [0]", got)
	}
	if !l.MarkDead(0) {
		t.Fatal("first MarkDead returned false")
	}
	if l.MarkDead(0) {
		t.Fatal("second MarkDead returned true")
	}
	// A dead site's renewals are ignored until Revive.
	l.Renew(0, 7*time.Second)
	if got := l.Expired(100 * time.Second); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Expired(100s) = %v, want [1] (site 0 dead)", got)
	}
	l.Revive(0, 10*time.Second)
	if l.Dead(0) {
		t.Fatal("site 0 still dead after Revive")
	}
	if got := l.Expired(12 * time.Second); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Expired(12s) = %v, want [1]", got)
	}
}

func TestLeasesDisabled(t *testing.T) {
	l := NewLeases(0)
	l.Renew(0, 0)
	if got := l.Expired(time.Hour); got != nil {
		t.Fatalf("disabled leases expired %v", got)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := Checkpoint{
		Site:      1,
		Seq:       7,
		Object:    []byte("encoded reduction object"),
		Completed: []int{0, 3, 4, 5, 900},
	}
	got, err := DecodeCheckpoint(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
	// Empty completed list and empty object.
	c2 := Checkpoint{Site: 0, Seq: 1, Object: []byte{}, Completed: []int{}}
	got2, err := DecodeCheckpoint(c2.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got2.Site != 0 || got2.Seq != 1 || len(got2.Object) != 0 || len(got2.Completed) != 0 {
		t.Fatalf("empty round trip mismatch: %+v", got2)
	}
}

func TestCheckpointDecodeErrors(t *testing.T) {
	if _, err := DecodeCheckpoint(nil); err == nil {
		t.Error("nil blob decoded")
	}
	if _, err := DecodeCheckpoint(make([]byte, 20)); err == nil {
		t.Error("zero magic decoded")
	}
	good := Checkpoint{Site: 1, Seq: 1, Object: []byte("x"), Completed: []int{1, 2}}.Encode()
	if _, err := DecodeCheckpoint(good[:len(good)-1]); err == nil {
		t.Error("truncated blob decoded")
	}
}

func TestCheckpointKey(t *testing.T) {
	if got := QueryKey("ckpt", 2, 3); got != "ckpt/q2/site-3" {
		t.Fatalf("QueryKey = %q", got)
	}
	// Query 0 is keyed like every other query, under the default prefix.
	if got := QueryKey("", 0, 0); got != "ckpt/q0/site-0" {
		t.Fatalf("QueryKey with empty prefix = %q", got)
	}
}

func TestMemStore(t *testing.T) {
	s := NewMemStore()
	if _, err := s.Get("missing"); !IsPermanent(err) {
		t.Fatalf("missing key error not permanent: %v", err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestBackoffCappedExponentialDeterministic(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond, Seed: 42}
	prevFull := time.Duration(0)
	for attempt := 1; attempt <= 8; attempt++ {
		d := b.Delay(attempt)
		full := min64(10*time.Millisecond<<(attempt-1), 80*time.Millisecond)
		if d < full/2 || d > full {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, d, full/2, full)
		}
		if full < prevFull {
			t.Errorf("attempt %d: envelope shrank", attempt)
		}
		prevFull = full
		if d2 := b.Delay(attempt); d2 != d {
			t.Errorf("attempt %d: nondeterministic delay %v vs %v", attempt, d, d2)
		}
	}
	// Different seeds give different jitter somewhere in the ladder.
	b2 := Backoff{Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond, Seed: 43}
	same := true
	for attempt := 1; attempt <= 8; attempt++ {
		if b.Delay(attempt) != b2.Delay(attempt) {
			same = false
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical jitter ladders")
	}
}

func TestBackoffZeroValue(t *testing.T) {
	var b Backoff
	if d := b.Delay(1); d < DefaultBackoffBase/2 || d > DefaultBackoffBase {
		t.Fatalf("zero-value first delay %v outside [%v, %v]", d, DefaultBackoffBase/2, DefaultBackoffBase)
	}
	if d := b.Delay(1000); d > DefaultBackoffCap {
		t.Fatalf("zero-value delay %v exceeds cap %v", d, DefaultBackoffCap)
	}
}

func min64(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

func TestIsPermanent(t *testing.T) {
	base := errors.New("no such object")
	if IsPermanent(base) {
		t.Error("plain error reported permanent")
	}
	p := AsPermanent(base)
	if !IsPermanent(p) {
		t.Error("AsPermanent error not detected")
	}
	wrapped := fmt.Errorf("fetch: %w", p)
	if !IsPermanent(wrapped) {
		t.Error("wrapped permanent error not detected")
	}
	if !errors.Is(wrapped, base) {
		t.Error("AsPermanent broke errors.Is chain")
	}
	if AsPermanent(nil) != nil {
		t.Error("AsPermanent(nil) != nil")
	}
}
