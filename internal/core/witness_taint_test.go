package core

import (
	"context"
	"testing"

	"pandora/internal/pipeline"
	"pandora/internal/taint"
)

// TestWitnessScanPairing checks the pairing discipline between the
// timing witnesses and the taint scanner: every witness kernel, run with
// its secret word labeled, produces zero leak events on the baseline
// machine (the configuration where the timing runs also show no
// secret-dependent cycles) and at least one event with the optimization
// enabled — for both contrasted secret values, since the trigger
// condition's *dependence* on the secret does not depend on which value
// the secret holds.
func TestWitnessScanPairing(t *testing.T) {
	for _, w := range witnesses() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			scan := func(mk func() pipeline.Config, secret uint64) *taint.State {
				t.Helper()
				st := taint.NewState()
				if _, err := runWitnessKernel(context.Background(), w, mk(), secret, st); err != nil {
					t.Fatal(err)
				}
				return st
			}
			for _, secret := range w.secrets {
				if st := scan(w.baseline, secret); st.Rec.Total() != 0 {
					t.Errorf("baseline secret=%d: %d leak events, want 0 (first: %+v)",
						secret, st.Rec.Total(), st.Rec.Events[0])
				}
				if st := scan(w.config, secret); st.Rec.Total() == 0 {
					t.Errorf("enabled secret=%d: no leak events", secret)
				}
			}
		})
	}
}
