package protocol

import (
	"bytes"
	"testing"

	"repro/internal/jobs"
)

func TestMessageFieldFidelity(t *testing.T) {
	in := ReductionResult{Site: 3, Object: []byte{9, 8, 7}, Processing: 123, Retrieval: 456, Sync: 789, LocalJobs: 10, StolenJobs: 11}
	frame, err := AppendFrame(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := out.(ReductionResult)
	if !ok {
		t.Fatalf("decoded %T", out)
	}
	if got.Site != in.Site || got.Processing != in.Processing || got.StolenJobs != in.StolenJobs ||
		!bytes.Equal(got.Object, in.Object) {
		t.Errorf("round trip lost fields: %+v vs %+v", got, in)
	}
}

func TestPollReplyCarriesRefs(t *testing.T) {
	js := []jobs.Job{{ID: 1, Site: 1}, {ID: 2, Site: 0}}
	js[0].Ref.Offset = 4096
	js[0].Ref.Size = 65536
	js[0].Ref.Units = 16
	frame, err := AppendFrame(nil, PollReply{Queries: []QueryJobs{{Query: 3, Jobs: js}}})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	g := out.(PollReply).Queries[0]
	if g.Query != 3 || len(g.Jobs) != 2 || g.Jobs[0].Ref.Size != 65536 || g.Jobs[0].Ref.Units != 16 {
		t.Errorf("grant round trip: %+v", g)
	}
}
