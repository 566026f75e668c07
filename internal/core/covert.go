package core

import (
	"context"
	"fmt"
	"strings"

	"pandora/internal/attack"
	"pandora/internal/parallel"
	"pandora/internal/uopt"
)

// The covert-channel setting of Section II: two cooperating programs
// communicate through optimization state with no victim involved. The
// experiment drives a full byte through the silent-store channel and the
// Sv computation-reuse channel, then shows the Sn variant killing the
// latter. The three trials build fully independent machines, so they run
// as parallel tasks and merge in fixed order.

func init() {
	register(&Experiment{
		Name: "covert", Artifact: "Section II / footnote 5",
		Title: "Covert channels through silent stores and the reuse table",
		Run:   runCovert,
	})
}

// covertTrial is one channel trial's contribution to the report.
type covertTrial struct {
	text    string
	metrics map[string]float64
	pass    bool
}

func runCovert(o Options) (Result, error) {
	const message = byte(0xA5)

	trials := []func() (covertTrial, error){
		func() (covertTrial, error) {
			ss, err := attack.NewSilentStoreChannel()
			if err != nil {
				return covertTrial{}, err
			}
			got, cycles, err := ss.TransmitByte(message)
			if err != nil {
				return covertTrial{}, err
			}
			return covertTrial{
				text: fmt.Sprintf("silent-store channel: sent %#02x, received %#02x (%d cycles/bit)\n",
					message, got, cycles/8),
				metrics: map[string]float64{
					"ss_cycles_per_bit": float64(cycles / 8),
					"ss_ok":             b2f(got == message),
				},
				pass: got == message,
			}, nil
		},
		func() (covertTrial, error) {
			ru, err := attack.NewReuseChannel()
			if err != nil {
				return covertTrial{}, err
			}
			got, err := ru.TransmitByte(message)
			if err != nil {
				return covertTrial{}, err
			}
			return covertTrial{
				text: fmt.Sprintf("Sv reuse channel:     sent %#02x, received %#02x (no shared memory needed)\n",
					message, got),
				metrics: map[string]float64{"sv_ok": b2f(got == message)},
				pass:    got == message,
			}, nil
		},
		func() (covertTrial, error) {
			snChan, err := attack.NewReuseChannel()
			if err != nil {
				return covertTrial{}, err
			}
			if err := snChan.UseScheme(uopt.SchemeSn); err != nil {
				return covertTrial{}, err
			}
			if err := snChan.Calibrate(); err != nil {
				return covertTrial{
					text:    fmt.Sprintf("Sn reuse channel:     dead (%v)\n", err),
					metrics: map[string]float64{"sn_dead": 1},
					pass:    true,
				}, nil
			}
			return covertTrial{
				text:    "Sn reuse channel:     STILL ALIVE — unexpected\n",
				metrics: map[string]float64{"sn_dead": 0},
				pass:    false,
			}, nil
		},
	}

	results, err := parallel.Map(context.Background(), o.Parallel, trials,
		func(_ context.Context, _ int, fn func() (covertTrial, error)) (covertTrial, error) {
			return fn()
		})
	if err != nil {
		return Result{}, err
	}

	var b strings.Builder
	b.WriteString("Covert channels through the studied optimizations\n\n")
	metrics := map[string]float64{}
	pass := true
	for _, r := range results {
		b.WriteString(r.text)
		for k, v := range r.metrics {
			metrics[k] = v
		}
		pass = pass && r.pass
	}
	b.WriteString("\nEvery stateful optimization carries a covert channel; keying reuse on\n" +
		"register names instead of values (Sn) removes the value channel entirely.\n")

	return Result{
		Name: "covert", Text: b.String(), Metrics: metrics,
		Pass: pass,
	}, nil
}
