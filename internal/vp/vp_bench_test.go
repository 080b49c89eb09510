package vp_test

import (
	"testing"

	"repro/internal/vp"
)

func BenchmarkSnapshotRestore(b *testing.B) {
	p, err := vp.New(vp.Config{RAMSize: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := p.LoadSource("li a0, 1\nebreak\n")
	if err != nil {
		b.Fatal(err)
	}
	snap := p.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RestoreReuse(snap, prog)
	}
}

func BenchmarkPlatformBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := vp.New(vp.Config{RAMSize: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.LoadSource("li a0, 1\nebreak\n"); err != nil {
			b.Fatal(err)
		}
	}
}
