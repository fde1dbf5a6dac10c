package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mufuzz/internal/fuzz"
	"mufuzz/internal/service"
	"mufuzz/internal/state"
)

// fixture reads a bundled bytecode + ABI fixture pair.
func fixture(t *testing.T, name string) (string, []byte) {
	t.Helper()
	code, err := os.ReadFile(filepath.Join("..", "..", "fixtures", name+".bin"))
	if err != nil {
		t.Fatal(err)
	}
	abiJSON, err := os.ReadFile(filepath.Join("..", "..", "fixtures", name+".abi.json"))
	if err != nil {
		t.Fatal(err)
	}
	return string(code), abiJSON
}

func write(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSpecFromFlags pins how the command line maps to a campaign spec: one
// target source, extra -bytecode/-abi pairs named after their bin file,
// manifest members with manifest-relative paths and pinned addresses, and
// the usage errors.
func TestSpecFromFlags(t *testing.T) {
	dir := t.TempDir()
	bank, bankABI := fixture(t, "bank-reentrant")
	token, tokenABI := fixture(t, "erc20")
	proxy, proxyABI := fixture(t, "proxy-delegate")
	src := "contract C { uint256 x; function f() public { x = 1; } }"
	write(t, filepath.Join(dir, "c.sol"), []byte(src))
	write(t, filepath.Join(dir, "bank.bin"), []byte(bank))
	write(t, filepath.Join(dir, "bank.abi.json"), bankABI)
	write(t, filepath.Join(dir, "erc20.bin"), []byte(token))
	write(t, filepath.Join(dir, "erc20.abi.json"), tokenABI)
	write(t, filepath.Join(dir, "w", "art", "proxy.bin"), []byte(proxy))
	write(t, filepath.Join(dir, "w", "art", "proxy.abi.json"), proxyABI)
	write(t, filepath.Join(dir, "w", "world.txt"), []byte(
		"# members\nmember px art/proxy.bin art/proxy.abi.json 0x00000000000000000000000000000000000c0ffe\n"+
			"member tok "+filepath.Join(dir, "erc20.bin")+" "+filepath.Join(dir, "erc20.abi.json")+"\n"))
	p := func(name string) string { return filepath.Join(dir, name) }
	base := cli{strategy: "mufuzz", iters: 4000, seed: 1}
	with := func(edit func(*cli)) cli {
		c := base
		edit(&c)
		return c
	}
	plain := service.CampaignSpec{Strategy: "mufuzz", Seed: 1, Iterations: 4000}
	spec := func(edit func(*service.CampaignSpec)) service.CampaignSpec {
		s := plain
		edit(&s)
		return s
	}
	tokenMember := service.WorldMemberSpec{Name: "erc20", Bytecode: token, ABI: tokenABI}

	cases := []struct {
		name string
		cli  cli
		want service.CampaignSpec
		pins []state.Address
		err  string
	}{
		{name: "file", cli: with(func(c *cli) { c.file = p("c.sol") }),
			want: spec(func(s *service.CampaignSpec) { s.Name, s.Source = p("c.sol"), src })},
		{name: "example", cli: with(func(c *cli) { c.example = "game"; c.strategy = "sfuzz"; c.seed = 9; c.iters = 50 }),
			want: service.CampaignSpec{Name: "game", Example: "game", Strategy: "sfuzz", Seed: 9, Iterations: 50}},
		{name: "bytecode", cli: with(func(c *cli) { c.bytecodes = multiFlag{p("bank.bin")}; c.abiFiles = multiFlag{p("bank.abi.json")} }),
			want: spec(func(s *service.CampaignSpec) { s.Name, s.Bytecode, s.ABI = p("bank.bin"), bank, bankABI })},
		{name: "members and attacker", cli: with(func(c *cli) {
			c.bytecodes = multiFlag{p("bank.bin"), p("erc20.bin")}
			c.abiFiles = multiFlag{p("bank.abi.json"), p("erc20.abi.json")}
			c.attacker = true
		}),
			want: spec(func(s *service.CampaignSpec) {
				s.Name, s.Bytecode, s.ABI, s.Attacker = p("bank.bin"), bank, bankABI, true
				s.Members = []service.WorldMemberSpec{tokenMember}
			}),
			pins: []state.Address{{}}},
		{name: "manifest", cli: with(func(c *cli) {
			c.bytecodes = multiFlag{p("bank.bin"), p("erc20.bin")}
			c.abiFiles = multiFlag{p("bank.abi.json"), p("erc20.abi.json")}
			c.worldFile = filepath.Join(dir, "w", "world.txt")
		}),
			want: spec(func(s *service.CampaignSpec) {
				s.Name, s.Bytecode, s.ABI = p("bank.bin"), bank, bankABI
				s.Members = []service.WorldMemberSpec{
					tokenMember,
					{Name: "px", Bytecode: proxy, ABI: proxyABI},
					{Name: "tok", Bytecode: token, ABI: tokenABI},
				}
			}),
			pins: []state.Address{{}, state.AddressFromUint(0xc0ffe), {}}},
		{name: "no source", cli: base, err: "pass exactly one of -file, -example, or -bytecode"},
		{name: "two sources", cli: with(func(c *cli) { c.example = "game"; c.file = p("c.sol") }),
			err: "pass exactly one of -file, -example, or -bytecode"},
		{name: "abi without bytecode", cli: with(func(c *cli) { c.example = "game"; c.abiFiles = multiFlag{p("bank.abi.json")} }),
			err: "-abi requires a matching -bytecode"},
		{name: "unmatched abi", cli: with(func(c *cli) {
			c.bytecodes = multiFlag{p("bank.bin"), p("erc20.bin")}
			c.abiFiles = multiFlag{p("bank.abi.json")}
		}), err: "2 -bytecode flag(s) but 1 -abi flag(s)"},
		{name: "empty file", cli: with(func(c *cli) { c.file = p("empty.sol") }), err: "empty.sol"},
		{name: "bad manifest member", cli: with(func(c *cli) {
			c.bytecodes = multiFlag{p("bank.bin")}
			c.abiFiles = multiFlag{p("bank.abi.json")}
			c.worldFile = p("bad.txt")
		}), err: "world member gone: "},
	}
	write(t, p("empty.sol"), nil)
	write(t, p("bad.txt"), []byte("member gone nope.bin nope.abi.json\n"))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, pins, err := tc.cli.spec()
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want it to contain %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("spec =\n%+v\nwant\n%+v", got, tc.want)
			}
			if !reflect.DeepEqual(pins, tc.pins) {
				t.Errorf("pins = %v, want %v", pins, tc.pins)
			}
		})
	}
}

// TestResolveAppliesWhatSpecsCannotSay: the seed as given (0 included), the
// time budget, the comparison-feedback ablation and pinned member addresses
// reach the resolved campaign.
func TestResolveAppliesWhatSpecsCannotSay(t *testing.T) {
	dir := t.TempDir()
	bank, bankABI := fixture(t, "bank-reentrant")
	token, tokenABI := fixture(t, "erc20")
	write(t, filepath.Join(dir, "bank.bin"), []byte(bank))
	write(t, filepath.Join(dir, "bank.abi.json"), bankABI)
	write(t, filepath.Join(dir, "art", "erc20.bin"), []byte(token))
	write(t, filepath.Join(dir, "art", "erc20.abi.json"), tokenABI)
	write(t, filepath.Join(dir, "world.txt"), []byte("member tok art/erc20.bin art/erc20.abi.json 0x00000000000000000000000000000000000c0ffe\n"))
	c := cli{
		bytecodes: multiFlag{filepath.Join(dir, "bank.bin")}, abiFiles: multiFlag{filepath.Join(dir, "bank.abi.json")},
		worldFile: filepath.Join(dir, "world.txt"), attacker: true, noCmpFeed: true,
		strategy: "mufuzz", iters: 10, seed: 0, budget: 3e9,
	}
	r, err := c.resolve()
	if err != nil {
		t.Fatal(err)
	}
	o := r.Options
	if o.Seed != 0 || o.Iterations != 10 || o.TimeBudget != 3e9 {
		t.Errorf("options seed %d iterations %d budget %v, want 0, 10, 3s", o.Seed, o.Iterations, o.TimeBudget)
	}
	if o.Strategy.CmpFeedback || o.Strategy.MinedDictionary || !strings.HasSuffix(o.Strategy.Name, " w/o comparison feedback") {
		t.Errorf("strategy %+v, want comparison feedback off", o.Strategy)
	}
	if r.World == nil || o.World != r.World || len(r.World.Members) != 1 || r.World.Attacker == nil {
		t.Fatalf("world %+v, want one member and the attacker", r.World)
	}
	if got := r.World.Members[0].Addr; got != state.AddressFromUint(0xc0ffe) {
		t.Errorf("member address %v, want the pinned 0xc0ffe", got)
	}
	if !strings.HasPrefix(r.Bucket, "world-") {
		t.Errorf("bucket %q, want the world bucket", r.Bucket)
	}
}

// TestResumeRefusesSnapshotFlags: a resumed campaign takes its budget,
// seed, strategy, time budget and ablation from the snapshot, so each of
// those flags given with -resume fails the run (exit 1) and the error names
// it. The same resume with only target and output flags runs.
func TestResumeRefusesSnapshotFlags(t *testing.T) {
	r, err := service.Resolve(service.CampaignSpec{Example: "crowdsale", Seed: 3, Iterations: 300}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c0, err := r.Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	c0.Run()
	snap := filepath.Join(t.TempDir(), "c.snap")
	write(t, snap, c0.Snapshot().EncodeBytes())
	resume := func(flags ...string) cli {
		c := cli{example: "crowdsale", strategy: "mufuzz", iters: 4000, seed: 1, resume: snap,
			set: map[string]bool{"example": true, "resume": true}}
		for _, f := range flags {
			c.set[f] = true
		}
		return c
	}
	for _, name := range []string{"iters", "seed", "strategy", "time", "no-cmp-feedback"} {
		c := resume(name)
		if _, err := c.resolve(); err == nil || !strings.Contains(err.Error(), "-"+name+" cannot be used with -resume") {
			t.Errorf("-%s with -resume: error %v, want it refused by name", name, err)
		}
		if code := c.run(); code != 1 {
			t.Errorf("-%s with -resume: exit %d, want 1", name, code)
		}
	}
	c := resume("v")
	if code := c.run(); code == 1 {
		t.Errorf("-resume with -v: exit 1, want the resumed campaign to run")
	}
}

// TestWriteReport pins the -json report: every key, the findings exactly as
// service.FindingsOf lists them (keys class, pc, description, poc), and the
// timeline's points.
func TestWriteReport(t *testing.T) {
	r, err := service.Resolve(service.CampaignSpec{Example: "crowdsale-buggy", Seed: 1, Iterations: 2000}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	res := c.RunCtx(context.Background())
	if len(res.Findings) == 0 || len(res.Timeline) == 0 {
		t.Fatalf("campaign found %d findings over %d timeline points; the check below needs both", len(res.Findings), len(res.Timeline))
	}
	var buf bytes.Buffer
	if err := writeReport(&buf, r.Target.Name(), res); err != nil {
		t.Fatal(err)
	}
	var rep map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range rep {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"contract", "coverage", "covered_edges", "elapsed_ms", "executions", "findings", "strategy", "timeline", "total_edges", "when"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("keys %v, want %v", keys, want)
	}
	var head struct {
		Contract     string  `json:"contract"`
		Strategy     string  `json:"strategy"`
		Executions   int     `json:"executions"`
		Coverage     float64 `json:"coverage"`
		CoveredEdges int     `json:"covered_edges"`
		TotalEdges   int     `json:"total_edges"`
	}
	if err := json.Unmarshal(buf.Bytes(), &head); err != nil {
		t.Fatal(err)
	}
	if head.Contract != "CrowdsaleBuggy" || head.Strategy != res.Strategy || head.Executions != res.Executions ||
		head.Coverage != res.Coverage || head.CoveredEdges != res.CoveredEdges || head.TotalEdges != res.TotalEdges {
		t.Errorf("summary %+v does not match the result", head)
	}
	var findings []service.Finding
	if err := json.Unmarshal(rep["findings"], &findings); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(findings, service.FindingsOf(res)) {
		t.Errorf("findings %+v, want %+v", findings, service.FindingsOf(res))
	}
	first := string(rep["findings"])
	at := func(key string) int { return strings.Index(first, `"`+key+`"`) }
	if !(at("class") < at("pc") && at("pc") < at("description") && at("description") < at("poc")) {
		t.Errorf("finding keys out of order: %s", first)
	}
	var timeline []struct {
		Executions int     `json:"executions"`
		Coverage   float64 `json:"coverage"`
	}
	if err := json.Unmarshal(rep["timeline"], &timeline); err != nil {
		t.Fatal(err)
	}
	if len(timeline) != len(res.Timeline) {
		t.Fatalf("%d timeline points, want %d", len(timeline), len(res.Timeline))
	}
	for i, tp := range res.Timeline {
		if timeline[i].Executions != tp.Executions || timeline[i].Coverage != tp.Coverage {
			t.Errorf("timeline[%d] = %+v, want %d executions at %v", i, timeline[i], tp.Executions, tp.Coverage)
		}
	}
}

// TestWriteReportClean: a run without findings reports "findings": null and
// no timeline key when it has no points.
func TestWriteReportClean(t *testing.T) {
	var buf bytes.Buffer
	if err := writeReport(&buf, "C", &fuzz.Result{Strategy: "MuFuzz"}); err != nil {
		t.Fatal(err)
	}
	var rep map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if string(rep["findings"]) != "null" {
		t.Errorf("findings = %s, want null", rep["findings"])
	}
	if _, ok := rep["timeline"]; ok {
		t.Error("timeline written without points")
	}
}

// TestMinimizePrintsClassOrder: -minimize prints its proof-of-concept lines
// in sorted class order, as the findings line lists the classes, on every
// run. Each run finds BD and IO; ranging over the repro map printed them in
// either order.
func TestMinimizePrintsClassOrder(t *testing.T) {
	for run := 0; run < 8; run++ {
		c := cli{example: "crowdsale-buggy", strategy: "mufuzz", iters: 2000, seed: 3, minimize: true}
		var code int
		out := captureStdout(t, func() { code = c.run() })
		if code != 2 {
			t.Fatalf("run %d: exit %d, want 2 (findings)", run, code)
		}
		var classes []string
		for _, line := range strings.Split(out, "\n") {
			if rest, ok := strings.CutPrefix(line, "  ["); ok {
				classes = append(classes, rest[:strings.Index(rest, "]")])
			}
		}
		if len(classes) < 2 {
			t.Fatalf("run %d: %d proof-of-concept lines, want at least 2:\n%s", run, len(classes), out)
		}
		if !sort.StringsAreSorted(classes) {
			t.Fatalf("run %d: proof-of-concept lines in class order %v, want sorted", run, classes)
		}
	}
}

// captureStdout returns what f writes to os.Stdout.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		done <- data
	}()
	defer func() { os.Stdout = saved }()
	f()
	w.Close()
	return string(<-done)
}
