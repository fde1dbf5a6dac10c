package mufuzz_test

import (
	"testing"

	"mufuzz/internal/corpus"
	"mufuzz/internal/minisol"
)

// BenchmarkCompile measures compiler throughput on a large generated
// contract.
func BenchmarkCompile(b *testing.B) {
	gen := corpus.GenerateLarge(3, 1)[0]
	b.SetBytes(int64(len(gen.Source)))
	for i := 0; i < b.N; i++ {
		if _, err := minisol.Compile(gen.Source); err != nil {
			b.Fatal(err)
		}
	}
}
