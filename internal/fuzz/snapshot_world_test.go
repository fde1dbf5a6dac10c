package fuzz

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"mufuzz/internal/corpus"
)

// TestSnapshotDecodesV2 pins backward compatibility with the previous
// format: a v2 snapshot — no world records, detector line without the
// valueout aggregate — must decode with the world fields at their zero
// values and resume into a runnable campaign.
func TestSnapshotDecodesV2(t *testing.T) {
	comp := compileT(t, corpus.Crowdsale())
	c := NewCampaign(comp, Options{Strategy: MuFuzz(), Seed: 1, Iterations: 200})
	if _, done := c.RunSlice(context.Background(), 2); done {
		t.Fatal("campaign finished before the pause point")
	}
	var v2 bytes.Buffer
	for _, line := range strings.SplitAfter(string(c.Snapshot().EncodeBytes()), "\n") {
		switch {
		case strings.HasPrefix(line, "mufuzz-snapshot v"):
			v2.WriteString("mufuzz-snapshot v2\n")
		case strings.HasPrefix(line, "detector "):
			v2.WriteString(strings.Replace(line, " valueout=0", "", 1))
		default:
			v2.WriteString(line)
		}
	}
	snap, err := DecodeSnapshot(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatalf("v2 snapshot failed to decode: %v", err)
	}
	if len(snap.WorldMembers) != 0 || snap.Attacker || snap.ValueOutSeen {
		t.Error("v2 snapshot decoded world state from nowhere")
	}
	resumed, err := ResumeCampaign(comp, snap)
	if err != nil {
		t.Fatalf("resume from v2: %v", err)
	}
	if res, done := resumed.RunSlice(context.Background(), 0); !done || res.Executions == 0 {
		t.Error("campaign resumed from v2 snapshot did not run to completion")
	}
}

// TestWorldSnapshotResume proves the resume property for multi-contract
// worlds: a members-only world campaign paused mid-run, round-tripped
// through the v3 encoding, and resumed via ResumeWorldCampaign finishes with
// exactly the uninterrupted result — and the snapshot refuses to resume
// without the world or into a changed one.
func TestWorldSnapshotResume(t *testing.T) {
	primary := compileT(t, corpus.Crowdsale())
	member := compileT(t, corpus.Token())
	world := func() *WorldOptions {
		return &WorldOptions{Members: []WorldMember{{Name: "token", Target: MinisolTarget(member)}}}
	}
	opts := Options{Strategy: MuFuzz(), Seed: 5, Iterations: 500, World: world()}

	fullOpts := opts
	fullOpts.World = world()
	want := resultFingerprint(NewCampaign(primary, fullOpts).Run())

	c := NewCampaign(primary, opts)
	if _, done := c.RunSlice(context.Background(), 3); done {
		t.Fatal("campaign finished before the pause point; grow the budget")
	}
	enc := c.Snapshot().EncodeBytes()
	if !bytes.Contains(enc, []byte("\nworldmember token ")) {
		t.Fatal("world member pin missing from encoding")
	}
	snap, err := DecodeSnapshot(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(snap.EncodeBytes(), enc) {
		t.Fatal("world snapshot encode/decode/encode is not byte-stable")
	}

	if _, err := ResumeTargetCampaign(MinisolTarget(primary), snap); err == nil {
		t.Fatal("ResumeTargetCampaign accepted a world snapshot")
	}
	if _, err := ResumeWorldCampaign(MinisolTarget(primary), &WorldOptions{
		Members: []WorldMember{{Name: "renamed", Target: MinisolTarget(member)}},
	}, snap); err == nil {
		t.Fatal("resume accepted a renamed world member")
	}
	if _, err := ResumeWorldCampaign(MinisolTarget(primary), &WorldOptions{
		Members: []WorldMember{{Name: "token", Target: MinisolTarget(primary)}},
	}, snap); err == nil {
		t.Fatal("resume accepted a member with changed code")
	}

	resumed, err := ResumeWorldCampaign(MinisolTarget(primary), world(), snap)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := resultFingerprint(resumed.Run()); got != want {
		t.Errorf("resumed world result diverged from uninterrupted run\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// TestSequenceRoundTripWorldFields pins the extended tx-line form: callee
// indices and attacker specs survive EncodeSequence/DecodeSequence, and
// plain transactions keep the historical 5-field line.
func TestSequenceRoundTripWorldFields(t *testing.T) {
	seq := Sequence{
		{Func: CtorName, Sender: 0, Attacker: []byte{1, 0, 0, 0, 0, 1, 0, 0}},
		{Func: "token.transfer", Sender: 2, Callee: 1, Args: []byte{0xaa}},
		{Func: "invest", Sender: 1},
	}
	enc := EncodeSequence(seq)
	lines := strings.Split(strings.TrimSpace(string(enc)), "\n")
	if len(strings.Fields(lines[0])) != 7 || len(strings.Fields(lines[1])) != 7 {
		t.Fatalf("world transactions should use the 7-field form: %q", lines)
	}
	if len(strings.Fields(lines[2])) != 5 {
		t.Fatalf("plain transaction should keep the 5-field form: %q", lines[2])
	}
	got, err := DecodeSequence(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != seq.String() {
		t.Fatalf("sequence round trip mismatch:\nwant %s\ngot  %s", seq, got)
	}
	if got[0].Attacker == nil || got[1].Callee != 1 || got[2].Callee != 0 {
		t.Fatalf("world fields lost in round trip: %+v", got)
	}
}
