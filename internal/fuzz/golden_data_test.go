package fuzz

// goldenFingerprints pins the observable behavior of the engine.
// Regenerated when comparison-operand feedback and mined dictionaries became
// part of the MuFuzz default — the flag-off behavior is separately pinned by
// goldenLegacyFingerprints above. Everything remains a pure function of
// Seed. Regenerate with MUFUZZ_GOLDEN_REGEN=1 only after an
// intentional behavior change.
// goldenLegacyFingerprints are the fingerprints the engine produced before
// comparison-operand feedback and mined dictionaries existed (PR 4 through
// PR 7). The "MuFuzz w/o comparison feedback" ablation must still reproduce
// them byte for byte (modulo the strategy name) — see
// TestGoldenCmpFeedbackOffLegacy. Do not regenerate: these are a fixed
// historical reference.
var goldenLegacyFingerprints = map[string]string{
	"crowdsale-seed1": `strategy=MuFuzz covered=20/24 cov=0.833333 execs=300 queue=9 masks=3 seqmut=80
findings=[]
classes=[]
repro=[]
t 1 0.541667
t 3 0.583333
t 6 0.625000
t 14 0.666667
t 137 0.833333
`,
	"crowdsale-seed7": `strategy=MuFuzz covered=21/24 cov=0.875000 execs=300 queue=13 masks=3 seqmut=78
findings=[]
classes=[]
repro=[]
t 1 0.541667
t 7 0.583333
t 9 0.625000
t 17 0.666667
t 48 0.708333
t 56 0.750000
t 207 0.833333
t 221 0.875000
`,
	"crowdsale-buggy-seed1": `strategy=MuFuzz covered=22/26 cov=0.846154 execs=300 queue=9 masks=4 seqmut=79
findings=[BD@283:block state (timestamp/number) influences a branch or call; BD@288:block state (timestamp/number) influences a branch or call]
classes=[BD]
repro=[BD:__ctor>invest>invest>refund>withdraw]
t 1 0.500000
t 3 0.538462
t 6 0.576923
t 18 0.615385
t 23 0.807692
t 25 0.846154
`,
}

var goldenFingerprints = map[string]string{
	"crowdsale-seed1": `strategy=MuFuzz covered=20/24 cov=0.833333 execs=300 queue=9 masks=3 seqmut=86
findings=[]
classes=[]
repro=[]
t 1 0.541667
t 3 0.583333
t 6 0.625000
t 13 0.666667
t 68 0.833333
`,
	"crowdsale-seed7": `strategy=MuFuzz covered=20/24 cov=0.833333 execs=300 queue=9 masks=3 seqmut=77
findings=[IO@130:ADD wraps mod 2^256 and the result persists; IO@152:ADD wraps mod 2^256 and the result persists]
classes=[IO]
repro=[IO:__ctor>invest>invest]
t 1 0.541667
t 6 0.583333
t 15 0.625000
t 26 0.666667
t 66 0.833333
`,
	"crowdsale-buggy-seed1": `strategy=MuFuzz covered=21/26 cov=0.807692 execs=300 queue=9 masks=3 seqmut=85
findings=[BD@283:block state (timestamp/number) influences a branch or call; BD@288:block state (timestamp/number) influences a branch or call]
classes=[BD]
repro=[BD:__ctor>invest>invest>refund>withdraw]
t 1 0.500000
t 3 0.538462
t 6 0.576923
t 13 0.615385
t 68 0.807692
`,
}
