package conformance

import (
	"bytes"
	"reflect"
	"testing"

	"mufuzz/internal/corpus"
	"mufuzz/internal/fuzz"
	"mufuzz/internal/minisol"
	"mufuzz/internal/world"
)

// fuzzTranscripts records the seed transcripts of the decoder fuzz targets:
// a plain crowdsale-buggy campaign and the reentrant bank with a synthesized
// attacker, whose options line carries a world token and whose tx lines
// carry attacker specs.
func fuzzTranscripts(f *testing.F) (plain, withWorld *Transcript) {
	comp, err := minisol.Compile(corpus.CrowdsaleBuggy())
	if err != nil {
		f.Fatal(err)
	}
	plain = RecordCampaign("crowdsale-buggy", comp, baseOptions(1, 60)).Transcript
	bank := loadFixtureTarget(f, "bank-reentrant")
	opts := baseOptions(1, 60)
	opts.World = &fuzz.WorldOptions{Attacker: world.NewModel(bank.Methods())}
	return plain, RecordTargetCampaign("bank", bank, opts).Transcript
}

// FuzzDecodeTranscript checks Decode on arbitrary bytes against its
// reference, the Sscanf decoder it replaced: what Decode accepts, the
// reference accepts with a deeply equal transcript, and what the reference
// accepts and re-encodes to the input bytes, Decode accepts too. Whatever
// decodes re-encodes to bytes that decode and re-encode to the same bytes.
// The last seeds are non-canonical edits the reference reads and Decode
// refuses.
func FuzzDecodeTranscript(f *testing.F) {
	plain, withWorld := fuzzTranscripts(f)
	enc := plain.EncodeBytes()
	f.Add(enc)
	f.Add(withWorld.EncodeBytes())
	for _, edit := range []struct{ from, to string }{
		{" batched=0 copystate=0 ", " batched=1 copystate=1 "},
		{" dist=0 ", " dist=10 "},
		{" nocache=0", " nocache=7"},
		{"\nedge ", "\nedge  "},
		{" 0x0 ", " -0 "},
		{"\nfinal ", "\nclass BD\nfinal "},
		{"\neof\n", "\neof"},
	} {
		bad := bytes.Replace(enc, []byte(edit.from), []byte(edit.to), 1)
		if bytes.Equal(bad, enc) {
			f.Fatalf("transcript carries no %q", edit.from)
		}
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(bytes.NewReader(data))
		want, refErr := refDecode(bytes.NewReader(data))
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("decoded a transcript the reference refuses (%v):\n%q", refErr, data)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("decoded transcript differs from the reference's:\ngot  %+v\nwant %+v", got, want)
		case err != nil && refErr == nil && bytes.Equal(want.EncodeBytes(), data):
			t.Fatalf("refused a canonical transcript the reference accepts: %v", err)
		case err != nil:
			return
		}
		enc := got.EncodeBytes()
		again, err := Decode(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-decode of the re-encoding: %v\n%s", err, enc)
		}
		if enc2 := again.EncodeBytes(); !bytes.Equal(enc2, enc) {
			t.Fatalf("encode is not a fixpoint:\nfirst  %q\nsecond %q", enc, enc2)
		}
	})
}

// FuzzScanRecordChunk checks the fleet coordinator's shallow chunk scan
// against the full record parser: ScanRecordChunk never panics, and on
// every record section the parser reads it agrees on the first index, the
// last index and the count.
func FuzzScanRecordChunk(f *testing.F) {
	plain, withWorld := fuzzTranscripts(f)
	f.Add([]byte{})
	f.Add(EncodeRecords(plain.Records[:8]))
	f.Add(EncodeRecords(withWorld.Records[3:6]))
	f.Add([]byte("rec 7 nested=0 dist=0 covered=0\nend\nrec 9 nested=1 dist=1 covered=2\nclass BD\nend\n"))
	f.Add([]byte("rec -1\nedge 5 1\nend\nend\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ScanRecordChunk(data)
		r := fuzz.NewLineReader(bytes.NewReader(data), "records", 1<<22)
		records := readRecords(r)
		if r.Close() != nil {
			return
		}
		if err != nil {
			t.Fatalf("ScanRecordChunk refused a record section the record parser reads: %v", err)
		}
		var want ChunkStats
		if n := len(records); n > 0 {
			want = ChunkStats{First: records[0].Index, Last: records[n-1].Index, Count: n}
		}
		if st != want {
			t.Fatalf("ScanRecordChunk read %+v, the record parser %+v", st, want)
		}
	})
}
