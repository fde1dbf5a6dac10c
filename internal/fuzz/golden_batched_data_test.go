package fuzz

// goldenBatchedFingerprints pins the observable behavior of the batched
// engine — the coordinator/executor schedule that is a pure function of
// Options.Seed, independent of worker count. Captured from the fork-join
// engine that preceded the pipelined one, which seeded every child with a
// stock rand.NewSource; the pipelined engine must reproduce every byte at
// any worker count. One fingerprint per campaign suffices because workers=2
// and workers=4 are asserted equal to it separately. Regenerate with
// MUFUZZ_GOLDEN_REGEN=1 only after an intentional schedule change.
var goldenBatchedFingerprints = map[string]string{
	"crowdsale-seed1": `strategy=MuFuzz covered=21/24 cov=0.875000 execs=300 queue=8 masks=4 seqmut=74
findings=[IO@130:ADD wraps mod 2^256 and the result persists; IO@152:ADD wraps mod 2^256 and the result persists]
classes=[IO]
repro=[IO:__ctor>invest>invest]
t 1 0.541667
t 3 0.583333
t 5 0.625000
t 25 0.666667
t 34 0.833333
t 163 0.875000
`,
	"crowdsale-seed7": `strategy=MuFuzz covered=21/24 cov=0.875000 execs=300 queue=9 masks=2 seqmut=82
findings=[IO@130:ADD wraps mod 2^256 and the result persists; IO@152:ADD wraps mod 2^256 and the result persists]
classes=[IO]
repro=[IO:__ctor>invest>invest]
t 1 0.541667
t 9 0.583333
t 14 0.625000
t 23 0.791667
t 103 0.833333
t 158 0.875000
`,
	"crowdsale-buggy-seed1": `strategy=MuFuzz covered=22/26 cov=0.846154 execs=300 queue=11 masks=4 seqmut=71
findings=[BD@283:block state (timestamp/number) influences a branch or call; BD@288:block state (timestamp/number) influences a branch or call]
classes=[BD]
repro=[BD:__ctor>invest>invest>refund>withdraw]
t 1 0.500000
t 3 0.538462
t 5 0.576923
t 25 0.615385
t 37 0.653846
t 47 0.692308
t 58 0.807692
t 62 0.846154
`,
}
