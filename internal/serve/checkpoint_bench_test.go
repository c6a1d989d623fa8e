package serve

import (
	"fmt"
	"io"
	"testing"

	contextrank "repro"
	"repro/internal/workload"
)

// BenchmarkCheckpointDump prices one shard's checkpoint dump with N live
// sessions, each holding five uncertain context measurements, over the small
// bench catalog with 8 rules. ns/op is one CheckpointDump into io.Discard: the
// facade write lock, the omit set built from the owner records and the JSON
// encoding of everything else. The sessions stay applied across the dump.
func BenchmarkCheckpointDump(b *testing.B) {
	for _, sessions := range []int{64, 4096} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			sys := contextrank.NewSystem()
			if _, err := workload.LoadBench(sys.Loader(), sys.Rules(), workload.SmallSpec(), 8); err != nil {
				b.Fatal(err)
			}
			srv := NewServer(sys, Options{})
			for u := 0; u < sessions; u++ {
				ms := make([]Measurement, 5)
				for j := range ms {
					ms[j] = Measurement{Concept: workload.BenchContextConcept((u + j) % 8), Prob: 0.5 + float64(j)/10}
				}
				if _, err := srv.SetSession(fmt.Sprintf("person%04d", u), ms); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.CheckpointDump(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
