package oracle

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mufuzz/internal/state"
)

// refKey is the string key findings were deduped by before FindingKey.
func refKey(f Finding) string {
	return fmt.Sprintf("%s@%s:%d", f.Class, f.Addr, f.PC)
}

// refReport is the string-keyed per-trace dedup that Report.add replaced.
type refReport struct {
	Report
	seen map[string]bool
}

func (r *refReport) add(f Finding) {
	if r.seen[refKey(f)] {
		return
	}
	if r.seen == nil {
		r.seen = make(map[string]bool)
	}
	r.seen[refKey(f)] = true
	r.Findings = append(r.Findings, f)
}

// refDetector is the string-keyed campaign aggregate that Detector's
// FindingKey map and kept class set replaced: Absorb rebuilds the class set
// over every finding, and Classes walks them. It shares the detector's
// inspector for the EF condition.
type refDetector struct {
	insp          *Inspector
	receivedValue bool
	valueOutSeen  bool
	findings      map[string]Finding
}

func newRefDetector(insp *Inspector) *refDetector {
	return &refDetector{insp: insp, findings: make(map[string]Finding)}
}

func (d *refDetector) Absorb(r Report) []BugClass {
	if r.ReceivedValue {
		d.receivedValue = true
	}
	if r.ValueOutOK {
		d.valueOutSeen = true
	}
	before := make(map[BugClass]bool)
	for _, f := range d.findings {
		before[f.Class] = true
	}
	var fresh []BugClass
	seen := make(map[BugClass]bool)
	for _, f := range r.Findings {
		if _, dup := d.findings[refKey(f)]; !dup {
			d.findings[refKey(f)] = f
		}
		if !before[f.Class] && !seen[f.Class] {
			fresh = append(fresh, f.Class)
			seen[f.Class] = true
		}
	}
	return fresh
}

func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		return out[i].PC < out[j].PC
	})
}

func (d *refDetector) State() (bool, []Finding) {
	out := make([]Finding, 0, len(d.findings))
	for _, f := range d.findings {
		out = append(out, f)
	}
	sortFindings(out)
	return d.receivedValue, out
}

func (d *refDetector) Restore(receivedValue bool, findings []Finding) {
	d.receivedValue = receivedValue
	d.findings = make(map[string]Finding, len(findings))
	for _, f := range findings {
		d.findings[refKey(f)] = f
	}
}

func (d *refDetector) frozen() bool {
	if !d.receivedValue {
		return false
	}
	if d.insp.witness {
		return !d.valueOutSeen
	}
	return !d.insp.hasValueOutOp
}

func (d *refDetector) Finalize() []Finding {
	out := make([]Finding, 0, len(d.findings)+1)
	for _, f := range d.findings {
		out = append(out, f)
	}
	if d.frozen() {
		ef := Finding{Class: EF, Addr: d.insp.addr, PC: 0, Description: (&Detector{insp: d.insp}).efDescription()}
		if _, dup := d.findings[refKey(ef)]; !dup {
			out = append(out, ef)
		}
	}
	sortFindings(out)
	return out
}

func (d *refDetector) Classes() map[BugClass]bool {
	out := make(map[BugClass]bool)
	for _, f := range d.findings {
		out[f.Class] = true
	}
	if d.frozen() {
		out[EF] = true
	}
	return out
}

// randomFindings draws a raw finding list over a small location space, so
// duplicates within one list and repeats across lists are common. The
// description varies independently of the key, which pins that the first
// finding of a key is the one kept.
func randomFindings(rng *rand.Rand, addrs []state.Address) []Finding {
	out := make([]Finding, rng.Intn(7))
	for i := range out {
		out[i] = Finding{
			Class:       AllClasses[rng.Intn(len(AllClasses))],
			Addr:        addrs[rng.Intn(len(addrs))],
			PC:          uint64(rng.Intn(6)),
			Description: fmt.Sprintf("d%d", rng.Intn(3)),
		}
	}
	return out
}

// byLocation breaks the (class, PC) order's ties by address. Both
// implementations leave findings at one (class, PC) on different addresses
// in map order; a detector's own findings all carry its contract's address,
// so in a campaign the ties never occur.
func byLocation(fs []Finding) []Finding {
	out := append([]Finding(nil), fs...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		return string(a.Addr[:]) < string(b.Addr[:])
	})
	return out
}

// TestReportDedupMatchesReference checks Report.add's scan against the
// string-keyed set it replaced: same findings kept, same order.
func TestReportDedupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	addrs := []state.Address{state.AddressFromUint(0xc0de), state.AddressFromUint(0xa77c)}
	for i := 0; i < 2000; i++ {
		raw := randomFindings(rng, addrs)
		var got Report
		var want refReport
		for _, f := range raw {
			got.add(f)
			want.add(f)
		}
		if !reflect.DeepEqual(got.Findings, want.Findings) {
			t.Fatalf("stream %d: add(%v) kept %v, reference %v", i, raw, got.Findings, want.Findings)
		}
	}
}

// TestDetectorMatchesReference feeds identical randomized report streams to
// Detector and to the string-keyed reference, and requires the same Absorb
// return values, State, Finalize and Classes after every report. The
// streams carry duplicates inside one report (raw and after per-trace
// dedup), repeats across reports, value flags, and one State/Restore round
// trip midway, over heuristic detectors with and without a value-out
// instruction and over a witnessed detector.
func TestDetectorMatchesReference(t *testing.T) {
	addr := state.AddressFromUint(0xc0de)
	attacker := state.AddressFromUint(0xa77c)
	addrs := []state.Address{addr, attacker}
	callCode := []byte{0xf1}  // CALL: a value-out instruction
	plainCode := []byte{0x00} // STOP
	build := map[string]func() *Detector{
		"heuristic-valueout": func() *Detector { return NewDetector(addr, callCode) },
		"heuristic-frozen":   func() *Detector { return NewDetector(addr, plainCode) },
		"witnessed":          func() *Detector { return NewWitnessedDetector(addr, plainCode, attacker) },
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			for stream := 0; stream < 50; stream++ {
				rng := rand.New(rand.NewSource(int64(stream)))
				d := mk()
				ref := newRefDetector(d.insp)
				n := 10 + rng.Intn(40)
				restoreAt := rng.Intn(n)
				for i := 0; i < n; i++ {
					if i == restoreAt {
						rv, fs := d.State()
						vo := d.ValueOutSeen()
						d = mk()
						d.Restore(rv, fs)
						d.SetValueOutSeen(vo)
						rrv, rfs := ref.State()
						rvo := ref.valueOutSeen
						ref = newRefDetector(d.insp)
						ref.Restore(rrv, rfs)
						ref.valueOutSeen = rvo
					}
					rep := Report{
						Findings:      randomFindings(rng, addrs),
						ReceivedValue: rng.Intn(8) == 0,
						ValueOutOK:    rng.Intn(16) == 0,
					}
					if rng.Intn(2) == 0 {
						// The inspector's per-trace dedup runs before Absorb.
						var dedup Report
						for _, f := range rep.Findings {
							dedup.add(f)
						}
						rep.Findings = dedup.Findings
					}
					got, want := d.Absorb(rep), ref.Absorb(rep)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("stream %d report %d: Absorb = %v, reference %v", stream, i, got, want)
					}
					rv, fs := d.State()
					rrv, rfs := ref.State()
					if rv != rrv || !reflect.DeepEqual(byLocation(fs), byLocation(rfs)) {
						t.Fatalf("stream %d report %d: State = %v %v, reference %v %v", stream, i, rv, fs, rrv, rfs)
					}
					if got, want := d.Finalize(), ref.Finalize(); !reflect.DeepEqual(byLocation(got), byLocation(want)) {
						t.Fatalf("stream %d report %d: Finalize = %v, reference %v", stream, i, got, want)
					}
					if got, want := d.Classes(), ref.Classes(); !reflect.DeepEqual(got, want) {
						t.Fatalf("stream %d report %d: Classes = %v, reference %v", stream, i, got, want)
					}
				}
			}
		})
	}
}
