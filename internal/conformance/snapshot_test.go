package conformance

import (
	"bytes"
	"testing"
)

// TestSnapshotResumeConformance is the acceptance pin for campaign
// snapshot/resume: a campaign paused every few rounds, snapshotted through
// the encode→decode round trip, torn down, and resumed must produce a
// transcript byte-identical to the uninterrupted campaign. Every seed pick,
// every mutated child, every coverage delta, and every oracle report must
// line up record for record.
func TestSnapshotResumeConformance(t *testing.T) {
	for name, comp := range diffContracts(t) {
		opts := baseOptions(7, 400)

		full := RecordCampaign(name, comp, opts)
		interrupted, err := RecordInterrupted(name, comp, opts, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := Diff(full.Transcript, interrupted.Transcript); d != nil {
			t.Errorf("%s: snapshot/resume transcript diverged: %s", name, d)
			continue
		}
		if !bytes.Equal(full.Transcript.EncodeBytes(), interrupted.Transcript.EncodeBytes()) {
			t.Errorf("%s: transcript bytes differ", name)
		}
		// The interrupted transcript's claims must also hold on independent
		// re-execution, same as any recorded campaign's.
		if err := VerifySequences(interrupted.Campaign, interrupted.Transcript); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
