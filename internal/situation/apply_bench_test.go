package situation

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/mapping"
)

func BenchmarkApplyChurn(b *testing.B) {
	l := mapping.NewLoader(engine.New())
	ctx := New("peter").
		Add("Breakfast", 0.9).
		AddExclusive("location", []string{"InKitchen", "InOffice", "InHall"}, []float64{0.6, 0.3, 0.1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctx.Apply(l); err != nil {
			b.Fatal(err)
		}
	}
}
