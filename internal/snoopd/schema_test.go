package snoopd

import (
	"encoding/json"
	"testing"
)

// TestJSONSchemaBytes pins the JSON API's wire bytes: field names,
// field order and omitempty behaviour of the request and result
// bodies. The equivalence suite compares decoded values and so cannot
// see a renamed tag or a dropped omitempty; this test can.
func TestJSONSchemaBytes(t *testing.T) {
	// Every workload field carries a distinct value so a swapped tag shows.
	level := 5
	best := ResultJSON{Method: "mva", N: 10, Speedup: 7.5, ProcessingPower: 6.5, R: 4.25, BusUtilization: 0.875,
		BusWait: 1.5, MemUtilization: 0.125, MemWait: 0.375, Iterations: 9}
	observed := &WorkloadParams{
		Tau: 2.5, PPrivate: 0.75, PSro: 0.125, PSw: 0.125,
		HPrivate: 0.95, HSro: 0.94, HSw: 0.93,
		RPrivate: 0.7, RSw: 0.6, AmodPrivate: 0.5, AmodSw: 0.4,
		CsupplySro: 0.3, CsupplySw: 0.2, WbCsupply: 0.1,
		RepP: 0.15, RepSw: 0.25, FixedParams: true,
	}
	one := ResultJSON{N: 8, Speedup: 6.25, ProcessingPower: 5.5, R: 3.75, BusUtilization: 0.625,
		BusWait: 0.125, MemUtilization: 0.25, MemWait: 0.0625, Iterations: 12}
	cases := []struct {
		name, want string
		v          any
	}{
		{name: "solve, fully populated", want: `{"protocol":{"name":"Illinois"},"workload":{"params":{"tau":2.5,"p_private":0.75,"p_sro":0.125,"p_sw":0.125,"h_private":0.95,"h_sro":0.94,"h_sw":0.93,"r_private":0.7,"r_sw":0.6,"amod_private":0.5,"amod_sw":0.4,"csupply_sro":0.3,"csupply_sw":0.2,"wb_csupply":0.1,"rep_p":0.15,"rep_sw":0.25,"fixed_params":true}},"n":8,"timing":{"t_supply":2,"block_size":8},"options":{"tolerance":1e-8,"no_residual_life":true,"split_transaction_bus":true},"timeout_ms":250}`,
			v: SolveRequest{
				Protocol: ProtocolSpec{Name: "Illinois"},
				Workload: WorkloadSpec{Params: &WorkloadParams{
					Tau: 2.5, PPrivate: 0.75, PSro: 0.125, PSw: 0.125,
					HPrivate: 0.95, HSro: 0.94, HSw: 0.93,
					RPrivate: 0.7, RSw: 0.6, AmodPrivate: 0.5, AmodSw: 0.4,
					CsupplySro: 0.3, CsupplySw: 0.2, WbCsupply: 0.1,
					RepP: 0.15, RepSw: 0.25, FixedParams: true,
				}},
				N:         8,
				Timing:    &TimingSpec{TSupply: 2, BlockSize: 8},
				Options:   &OptionsSpec{Tolerance: 1e-8, NoResidualLife: true, SplitTransactionBus: true},
				TimeoutMS: 250,
			}},
		{name: "solve, every timing and option set", want: `{"protocol":{"mods":[1,3]},"workload":{"appendix_a":5},"n":2,"timing":{"t_supply":1.5,"t_write":2.5,"t_inval":3.5,"d_mem":4.5,"block_size":16,"t_block":5.5},"options":{"tolerance":0.000001,"max_iterations":99,"no_cache_interference":true,"no_memory_interference":true,"no_residual_life":true,"exponential_bus":true,"no_arrival_correction":true,"split_transaction_bus":true}}`,
			v: SolveRequest{
				Protocol: ProtocolSpec{Mods: []int{1, 3}},
				Workload: WorkloadSpec{AppendixA: &level},
				N:        2,
				Timing:   &TimingSpec{TSupply: 1.5, TWrite: 2.5, TInval: 3.5, DMem: 4.5, BlockSize: 16, TBlock: 5.5},
				Options: &OptionsSpec{Tolerance: 1e-6, MaxIterations: 99, NoCacheInterference: true,
					NoMemoryInterference: true, NoResidualLife: true, ExponentialBus: true,
					NoArrivalCorrection: true, SplitTransactionBus: true},
			}},
		{name: "solve, all-zero arms", want: `{"protocol":{},"workload":{"params":{"tau":0,"p_private":0,"p_sro":0,"p_sw":0,"h_private":0,"h_sro":0,"h_sw":0,"r_private":0,"r_sw":0,"amod_private":0,"amod_sw":0,"csupply_sro":0,"csupply_sw":0,"wb_csupply":0,"rep_p":0,"rep_sw":0}},"n":0,"timing":{},"options":{}}`,
			v: SolveRequest{
				Protocol: ProtocolSpec{Mods: []int{}},
				Workload: WorkloadSpec{Params: &WorkloadParams{}},
				Timing:   &TimingSpec{},
				Options:  &OptionsSpec{},
			}},
		{name: "solve, zero value", want: `{"protocol":{},"workload":{},"n":0}`,
			v: SolveRequest{}},
		{name: "batch record, result arm", want: `{"seq":3,"result":{"n":8,"speedup":6.25,"processing_power":5.5,"r":3.75,"bus_utilization":0.625,"bus_wait":0.125,"mem_utilization":0.25,"mem_wait":0.0625,"iterations":12}}`,
			v: BatchRecord{Seq: 3, Result: &one}},
		{name: "batch record, sweep arm", want: `{"seq":4,"sweep":[{"n":8,"speedup":6.25,"processing_power":5.5,"r":3.75,"bus_utilization":0.625,"bus_wait":0.125,"mem_utilization":0.25,"mem_wait":0.0625,"iterations":12},{"n":0,"speedup":0,"processing_power":0,"r":0,"bus_utilization":0,"bus_wait":0,"mem_utilization":0,"mem_wait":0,"iterations":0}]}`,
			v: BatchRecord{Seq: 4, Sweep: []ResultJSON{one, {}}}},
		{name: "solvebest, clean MVA answer", want: `{"method":"mva","n":10,"speedup":7.5,"processing_power":6.5,"r":4.25,"bus_utilization":0.875,"bus_wait":1.5,"mem_utilization":0.125,"mem_wait":0.375,"iterations":9}`,
			v: best},
		{name: "solvebest, GTPN answer", want: `{"method":"gtpn","n":3,"speedup":2.75,"processing_power":2.5,"r":4.75,"bus_utilization":0.375,"bus_wait":0.25,"mem_utilization":0,"mem_wait":0,"iterations":0,"states":27}`,
			v: ResultJSON{Method: "gtpn", N: 3, Speedup: 2.75, ProcessingPower: 2.5, R: 4.75, BusUtilization: 0.375,
				BusWait: 0.25, States: 27}},
		{name: "solvebest, degraded simulation answer", want: `{"method":"simulation","degraded":true,"fallback_reason":"gtpn: state explosion","n":4,"speedup":3.25,"processing_power":3,"r":4.5,"bus_utilization":0.5,"bus_wait":0.75,"mem_utilization":0.0625,"mem_wait":0,"iterations":0,"speedup_low":3.125,"speedup_high":3.375,"observed":{"tau":2.5,"p_private":0.75,"p_sro":0.125,"p_sw":0.125,"h_private":0.95,"h_sro":0.94,"h_sw":0.93,"r_private":0.7,"r_sw":0.6,"amod_private":0.5,"amod_sw":0.4,"csupply_sro":0.3,"csupply_sw":0.2,"wb_csupply":0.1,"rep_p":0.15,"rep_sw":0.25,"fixed_params":true}}`,
			v: ResultJSON{Method: "simulation", Degraded: true, FallbackReason: "gtpn: state explosion",
				N: 4, Speedup: 3.25, ProcessingPower: 3, R: 4.5, BusUtilization: 0.5, BusWait: 0.75,
				MemUtilization: 0.0625, SpeedupLow: 3.125, SpeedupHigh: 3.375, Observed: observed}},
		{name: "batch record, solvebest arm", want: `{"seq":5,"solvebest":{"method":"mva","n":10,"speedup":7.5,"processing_power":6.5,"r":4.25,"bus_utilization":0.875,"bus_wait":1.5,"mem_utilization":0.125,"mem_wait":0.375,"iterations":9}}`,
			v: BatchRecord{Seq: 5, SolveBest: &best}},
	}
	for _, c := range cases {
		b, err := json.Marshal(c.v)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(b) != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, b, c.want)
		}
	}
}
