package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"mufuzz/internal/conformance"
	"mufuzz/internal/service"
)

// jsonKeys marshals v and returns the keys of the resulting object, sorted.
func jsonKeys(t *testing.T, v any) []string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestProtocolJSONKeys pins the JSON key sets of the status and protocol
// objects the service and the fleet serve: the shared status model moved
// fields between structs, and no key may appear, vanish or be renamed.
// Every field is set, so omitempty keys show.
func TestProtocolJSONKeys(t *testing.T) {
	progress := service.Progress{Executions: 1, Coverage: 0.5, CoveredEdges: 1, TotalEdges: 2, SeedQueueLen: 1, Findings: 1, Classes: []string{"BD"}}
	status := service.Status{
		ID: "c0001", Name: "n", Contract: "b", State: "running", Error: "e", Iterations: 9,
		Progress: progress, SeedsImported: 1, SeedsExported: 1, Slices: 1,
	}
	seed := service.SeedObject{Fingerprint: "f", Payload: []byte("p")}
	finding := service.Finding{Class: "BD", PC: 1, Description: "d", PoC: []string{"a"}, PoCMin: []string{"a"}}
	for _, tc := range []struct {
		name string
		v    any
		want []string
	}{
		{"service.Status", status, []string{
			"classes", "contract", "coverage", "covered_edges", "error", "executions", "findings", "id",
			"iterations", "name", "seed_queue_len", "seeds_exported", "seeds_imported", "slices", "state", "total_edges"}},
		{"fleet.CampaignStatus", CampaignStatus{Status: status, Tenant: "t", Worker: "w"}, []string{
			"classes", "contract", "coverage", "covered_edges", "error", "executions", "findings", "id",
			"iterations", "name", "seed_queue_len", "seeds_exported", "seeds_imported", "slices", "state", "tenant",
			"total_edges", "worker"}},
		{"fleet.CompleteRequest", CompleteRequest{
			Worker: "w", Snapshot: []byte("s"), SnapshotLen: 1, Done: true, Records: []byte("r"), RecordsLen: 1,
			Imported: []string{"f"}, Exports: []service.SeedObject{seed}, Progress: progress,
			Findings: []service.Finding{finding}, Final: &conformance.Summary{}, Next: &LeaseRequest{Worker: "w"},
		}, []string{"done", "exports", "final", "findings", "imported", "next", "progress", "records_len", "snapshot_len", "worker"}},
		{"fleet.LeaseRequest", LeaseRequest{Worker: "w", WarmCampaign: "f", WarmSeq: 1},
			[]string{"warm_campaign", "warm_seq", "worker"}},
		{"fleet.CompleteResponse", CompleteResponse{Committed: true, Duplicate: true, CampaignDone: true, Lease: &Lease{}},
			[]string{"campaign_done", "committed", "duplicate", "lease"}},
		{"fleet.CompleteRequest.progress", progress, []string{
			"classes", "coverage", "covered_edges", "executions", "findings", "seed_queue_len", "total_edges"}},
		{"fleet.Lease", Lease{
			ID: "l", CampaignID: "f", Seq: 1, Spec: buggySpec(1), Snapshot: []byte("s"), SnapshotElided: true,
			Rounds: 1, TTLMillis: 1, Bucket: "b", Imports: []service.SeedObject{seed}, Pollinate: true, Record: true,
		}, []string{
			"bucket", "campaign_id", "id", "imports", "pollinate", "record", "rounds", "seq", "snapshot",
			"snapshot_elided", "spec", "ttl_millis"}},
		{"SeedObject", seed, []string{"fingerprint", "payload"}},
		{"service.Finding", finding, []string{"class", "description", "pc", "poc", "poc_minimized"}},
	} {
		if got := jsonKeys(t, tc.v); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s keys\n got %v\nwant %v", tc.name, got, tc.want)
		}
	}
}

// TestReferenceTranscriptReplays pins that a fleet reference transcript
// replays: its contract line names the campaign the spec resolves to, and
// the spec's target and world re-record it byte for byte — for a plain spec
// and for a world spec (what `conform -mode replay -spec` runs).
func TestReferenceTranscriptReplays(t *testing.T) {
	fixture := func(name string) (string, []byte) {
		bin, err := os.ReadFile("../../fixtures/" + name + ".bin")
		if err != nil {
			t.Fatal(err)
		}
		abiJSON, err := os.ReadFile("../../fixtures/" + name + ".abi.json")
		if err != nil {
			t.Fatal(err)
		}
		return string(bin), abiJSON
	}
	bankBin, bankABI := fixture("bank-reentrant")
	tokBin, tokABI := fixture("erc20")
	for name, spec := range map[string]service.CampaignSpec{
		"plain": buggySpec(800),
		"world": {Bytecode: bankBin, ABI: bankABI, Attacker: true, Seed: 3, Iterations: 800,
			Members: []service.WorldMemberSpec{{Name: "token", Bytecode: tokBin, ABI: tokABI}}},
	} {
		run, err := ReferenceTranscript(spec, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		enc := run.Transcript.EncodeBytes()
		want, err := conformance.Decode(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		r, err := service.Resolve(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.Name != want.Contract {
			t.Fatalf("%s: contract line %q, spec resolves to %q", name, want.Contract, r.Name)
		}
		replayed, d := conformance.ReplayCheck(r.Target, r.World, want)
		if d != nil {
			t.Fatalf("%s: replay diverged: %s", name, d)
		}
		if got := replayed.Transcript.EncodeBytes(); string(got) != string(enc) {
			t.Fatalf("%s: replay transcript bytes differ", name)
		}
	}
}
