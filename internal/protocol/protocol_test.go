package protocol

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/jobs"
)

// allMessages enumerates one instance of every wire message.
func allMessages() []Message {
	return []Message{
		Hello{Site: 1, Cluster: "cloud", Cores: 16},
		JobSpec{App: "knn", Params: []byte{1}, UnitSize: 32, GroupBytes: 1 << 18, Index: []byte{2}, GroupSize: 8},
		PollRequest{Site: 1, N: 4},
		PollReply{Queries: []QueryJobs{{Jobs: []jobs.Job{{ID: 7, Site: 0}}}}},
		JobsDone{Site: 0, Jobs: []jobs.Job{{ID: 7}}},
		ReductionResult{Site: 1, Object: []byte{3, 4}, Processing: 5, Retrieval: 6, Sync: 7, LocalJobs: 8, StolenJobs: 9},
		ErrorReply{Err: "boom"},
		PutReq{Key: "k", Data: []byte("v")},
		PutResp{Err: ""},
		GetReq{Key: "k", Off: 1, Len: 2},
		GetResp{Data: []byte("d")},
		StatReq{Key: "k"},
		StatResp{Size: 42},
		ListReq{Prefix: "p"},
		ListResp{Keys: []string{"a", "b"}},
	}
}

type envelope struct{ M Message }

// TestEveryMessageGobRegistered round-trips each message through gob inside
// an interface-typed envelope — exactly how the transport carries them. A
// type missing from the init() registration fails here.
func TestEveryMessageGobRegistered(t *testing.T) {
	for _, m := range allMessages() {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(envelope{M: m}); err != nil {
			t.Errorf("%T: encode: %v", m, err)
			continue
		}
		var out envelope
		if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
			t.Errorf("%T: decode: %v", m, err)
			continue
		}
		if out.M == nil {
			t.Errorf("%T: decoded nil", m)
		}
	}
}

func TestMessageFieldFidelity(t *testing.T) {
	var buf bytes.Buffer
	in := ReductionResult{Site: 3, Object: []byte{9, 8, 7}, Processing: 123, Retrieval: 456, Sync: 789, LocalJobs: 10, StolenJobs: 11}
	if err := gob.NewEncoder(&buf).Encode(envelope{M: in}); err != nil {
		t.Fatal(err)
	}
	var out envelope
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	got, ok := out.M.(ReductionResult)
	if !ok {
		t.Fatalf("decoded %T", out.M)
	}
	if got.Site != in.Site || got.Processing != in.Processing || got.StolenJobs != in.StolenJobs ||
		!bytes.Equal(got.Object, in.Object) {
		t.Errorf("round trip lost fields: %+v vs %+v", got, in)
	}
}

func TestPollReplyCarriesRefs(t *testing.T) {
	var buf bytes.Buffer
	js := []jobs.Job{{ID: 1, Site: 1}, {ID: 2, Site: 0}}
	js[0].Ref.Offset = 4096
	js[0].Ref.Size = 65536
	js[0].Ref.Units = 16
	grant := PollReply{Queries: []QueryJobs{{Query: 3, Jobs: js}}}
	if err := gob.NewEncoder(&buf).Encode(envelope{M: grant}); err != nil {
		t.Fatal(err)
	}
	var out envelope
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	g := out.M.(PollReply).Queries[0]
	if g.Query != 3 || len(g.Jobs) != 2 || g.Jobs[0].Ref.Size != 65536 || g.Jobs[0].Ref.Units != 16 {
		t.Errorf("grant round trip: %+v", g)
	}
}
