package wire

import (
	"encoding/binary"
	"math"

	"snoopmva"
)

// The payload schemas of protocol version 1. Every message begins with
// the request's sequence id, so responses (which arrive in completion
// order, not request order) can be matched without decoding the rest —
// PeekSeq is that fast path.
//
// The codec encodes the root package's Workload, Timing, Options, Result
// and BestResult directly — the same structs whose JSON tags are the HTTP
// API's schema — so the two transports share one definition of the model's
// inputs and outputs. Only the request envelopes differ (explicit Has*
// flags here, optional pointers in JSON); internal/snoopd resolves both
// through the same spec types, and the equivalence suite drives
// identical requests through both and asserts bitwise-equal answers.

// ProtocolSpec names a protocol by preset name or by explicit
// modification set. Exactly one arm is encodable: Name when non-empty,
// otherwise Mods (which may be empty but non-nil, the base protocol).
type ProtocolSpec struct {
	Name string
	Mods []int
}

// WorkloadKind selects a WorkloadSpec arm.
type WorkloadKind uint8

const (
	// WorkloadAppendixA is one of the paper's Appendix A sharing levels.
	WorkloadAppendixA WorkloadKind = 0
	// WorkloadStress is the Section 4.3 stress test.
	WorkloadStress WorkloadKind = 1
	// WorkloadParams is a fully spelled-out parameter set.
	WorkloadParams WorkloadKind = 2
)

// WorkloadSpec selects a workload, mirroring the JSON API's arms.
type WorkloadSpec struct {
	Kind      WorkloadKind
	AppendixA int            // when Kind == WorkloadAppendixA
	Params    WorkloadFields // when Kind == WorkloadParams
}

// WorkloadFields is the spelled-out workload, encoded field by field.
type WorkloadFields = snoopmva.Workload

// TimingSpec is the architectural timing, encoded field by field.
type TimingSpec = snoopmva.Timing

// OptionsSpec is the MVA solver options, encoded field by field.
type OptionsSpec = snoopmva.Options

// BudgetSpec has the JSON BudgetSpec's shape (wall-clock budgets in
// ms), so the two convert into each other.
type BudgetSpec struct {
	MaxStates     int
	GTPNTimeoutMS int64
	SimCycles     int64
	SimTimeoutMS  int64
	Seed          uint64
}

// Result is the MVA result, encoded field by field.
type Result = snoopmva.Result

// SolveRequest is the payload of TypeSolveReq.
type SolveRequest struct {
	Seq        uint64
	Protocol   ProtocolSpec
	Workload   WorkloadSpec
	N          int
	HasTiming  bool
	Timing     TimingSpec
	HasOptions bool
	Options    OptionsSpec
	TimeoutMS  int64
}

// SolveResponse is the payload of TypeSolveResp.
type SolveResponse struct {
	Seq    uint64
	Result Result
}

// SolveBestRequest is the payload of TypeSolveBestReq.
type SolveBestRequest struct {
	Seq       uint64
	Protocol  ProtocolSpec
	Workload  WorkloadSpec
	N         int
	HasBudget bool
	Budget    BudgetSpec
	TimeoutMS int64
}

// SolveBestResponse is the payload of TypeSolveBestResp.
type SolveBestResponse struct {
	Seq uint64
	snoopmva.BestResult
}

// SweepRequest is the payload of TypeSweepReq.
type SweepRequest struct {
	Seq       uint64
	Protocol  ProtocolSpec
	Workload  WorkloadSpec
	Ns        []int
	Parallel  bool
	TimeoutMS int64
}

// SweepResponse is the payload of TypeSweepResp.
type SweepResponse struct {
	Seq     uint64
	Results []Result
}

// ErrorMsg is the payload of TypeError: the server's authoritative
// failure answer for one request, carrying the same code taxonomy as
// the JSON API's ErrorResponse ("invalid_input", "no_convergence",
// "diverged", "state_explosion", "deadline_exceeded", "internal").
type ErrorMsg struct {
	Seq  uint64
	Code string
	Msg  string
}

// BackpressureMsg is the payload of TypeBackpressure: the binary
// analogue of a 429/503 admission shed. Code is "overloaded",
// "rate_limited" or "draining"; RetryAfterMS is the admission
// controller's hint.
type BackpressureMsg struct {
	Seq          uint64
	Code         string
	RetryAfterMS int64
}

// Hello is the payload of TypeHello: the client's negotiation offer.
type Hello struct {
	MinVersion uint32
	MaxVersion uint32
	ClientName string
}

// HelloAck is the payload of TypeHelloAck: the version the server
// chose (the highest both ends speak).
type HelloAck struct {
	Version    uint32
	ServerName string
}

// Ping is the payload of TypePing.
type Ping struct{ Seq uint64 }

// Pong is the payload of TypePong. Draining reports the server's drain
// state — the binary analogue of /healthz answering 503.
type Pong struct {
	Seq      uint64
	Draining bool
}

// PeekSeq extracts the leading sequence id of a request/response payload
// without decoding the rest.
func PeekSeq(payload []byte) (uint64, bool) {
	seq, n := binary.Uvarint(payload)
	return seq, n > 0
}

// ---- append-style encoders -------------------------------------------

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendProtocol(dst []byte, p ProtocolSpec) []byte {
	if p.Name != "" {
		dst = append(dst, 0)
		return appendString(dst, p.Name)
	}
	dst = append(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(len(p.Mods)))
	for _, m := range p.Mods {
		dst = binary.AppendVarint(dst, int64(m))
	}
	return dst
}

func appendWorkload(dst []byte, w WorkloadSpec) []byte {
	dst = append(dst, byte(w.Kind))
	switch w.Kind {
	case WorkloadAppendixA:
		dst = binary.AppendVarint(dst, int64(w.AppendixA))
	case WorkloadParams:
		f := &w.Params
		for _, v := range [...]float64{
			f.Tau, f.PPrivate, f.PSro, f.PSw, f.HPrivate, f.HSro, f.HSw,
			f.RPrivate, f.RSw, f.AmodPrivate, f.AmodSw, f.CsupplySro,
			f.CsupplySw, f.WbCsupply, f.RepP, f.RepSw,
		} {
			dst = appendFloat(dst, v)
		}
		dst = appendBool(dst, f.FixedParams)
	}
	return dst
}

func appendTiming(dst []byte, has bool, t TimingSpec) []byte {
	dst = appendBool(dst, has)
	if !has {
		return dst
	}
	dst = appendFloat(dst, t.TSupply)
	dst = appendFloat(dst, t.TWrite)
	dst = appendFloat(dst, t.TInval)
	dst = appendFloat(dst, t.DMem)
	dst = binary.AppendVarint(dst, int64(t.BlockSize))
	return appendFloat(dst, t.TBlock)
}

func appendOptions(dst []byte, has bool, o OptionsSpec) []byte {
	dst = appendBool(dst, has)
	if !has {
		return dst
	}
	dst = appendFloat(dst, o.Tolerance)
	dst = binary.AppendVarint(dst, int64(o.MaxIterations))
	dst = appendBool(dst, o.NoCacheInterference)
	dst = appendBool(dst, o.NoMemoryInterference)
	dst = appendBool(dst, o.NoResidualLife)
	dst = appendBool(dst, o.ExponentialBus)
	dst = appendBool(dst, o.NoArrivalCorrection)
	return appendBool(dst, o.SplitTransactionBus)
}

func appendBudget(dst []byte, has bool, b BudgetSpec) []byte {
	dst = appendBool(dst, has)
	if !has {
		return dst
	}
	dst = binary.AppendVarint(dst, int64(b.MaxStates))
	dst = binary.AppendVarint(dst, b.GTPNTimeoutMS)
	dst = binary.AppendVarint(dst, b.SimCycles)
	dst = binary.AppendVarint(dst, b.SimTimeoutMS)
	return binary.AppendUvarint(dst, b.Seed)
}

func appendResult(dst []byte, r Result) []byte {
	dst = binary.AppendVarint(dst, int64(r.N))
	dst = appendFloat(dst, r.Speedup)
	dst = appendFloat(dst, r.ProcessingPower)
	dst = appendFloat(dst, r.R)
	dst = appendFloat(dst, r.BusUtilization)
	dst = appendFloat(dst, r.BusWait)
	dst = appendFloat(dst, r.MemUtilization)
	dst = appendFloat(dst, r.MemWait)
	return binary.AppendVarint(dst, int64(r.Iterations))
}

// AppendSolveRequest appends m's payload encoding to dst.
func AppendSolveRequest(dst []byte, m *SolveRequest) []byte {
	dst = binary.AppendUvarint(dst, m.Seq)
	dst = appendProtocol(dst, m.Protocol)
	dst = appendWorkload(dst, m.Workload)
	dst = binary.AppendVarint(dst, int64(m.N))
	dst = appendTiming(dst, m.HasTiming, m.Timing)
	dst = appendOptions(dst, m.HasOptions, m.Options)
	return binary.AppendVarint(dst, m.TimeoutMS)
}

// AppendSolveResponse appends m's payload encoding to dst.
func AppendSolveResponse(dst []byte, m *SolveResponse) []byte {
	dst = binary.AppendUvarint(dst, m.Seq)
	return appendResult(dst, m.Result)
}

// AppendSolveBestRequest appends m's payload encoding to dst.
func AppendSolveBestRequest(dst []byte, m *SolveBestRequest) []byte {
	dst = binary.AppendUvarint(dst, m.Seq)
	dst = appendProtocol(dst, m.Protocol)
	dst = appendWorkload(dst, m.Workload)
	dst = binary.AppendVarint(dst, int64(m.N))
	dst = appendBudget(dst, m.HasBudget, m.Budget)
	return binary.AppendVarint(dst, m.TimeoutMS)
}

// AppendSolveBestResponse appends m's payload encoding to dst.
func AppendSolveBestResponse(dst []byte, m *SolveBestResponse) []byte {
	dst = binary.AppendUvarint(dst, m.Seq)
	dst = appendString(dst, string(m.Method))
	dst = appendBool(dst, m.Degraded)
	dst = appendString(dst, m.FallbackReason)
	dst = binary.AppendVarint(dst, int64(m.N))
	dst = appendFloat(dst, m.Speedup)
	dst = appendFloat(dst, m.R)
	return appendFloat(dst, m.BusUtilization)
}

// AppendSweepRequest appends m's payload encoding to dst.
func AppendSweepRequest(dst []byte, m *SweepRequest) []byte {
	dst = binary.AppendUvarint(dst, m.Seq)
	dst = appendProtocol(dst, m.Protocol)
	dst = appendWorkload(dst, m.Workload)
	dst = binary.AppendUvarint(dst, uint64(len(m.Ns)))
	for _, n := range m.Ns {
		dst = binary.AppendVarint(dst, int64(n))
	}
	dst = appendBool(dst, m.Parallel)
	return binary.AppendVarint(dst, m.TimeoutMS)
}

// AppendSweepResponse appends m's payload encoding to dst.
func AppendSweepResponse(dst []byte, m *SweepResponse) []byte {
	dst = binary.AppendUvarint(dst, m.Seq)
	dst = binary.AppendUvarint(dst, uint64(len(m.Results)))
	for i := range m.Results {
		dst = appendResult(dst, m.Results[i])
	}
	return dst
}

// AppendError appends m's payload encoding to dst.
func AppendError(dst []byte, m *ErrorMsg) []byte {
	dst = binary.AppendUvarint(dst, m.Seq)
	dst = appendString(dst, m.Code)
	return appendString(dst, m.Msg)
}

// AppendBackpressure appends m's payload encoding to dst.
func AppendBackpressure(dst []byte, m *BackpressureMsg) []byte {
	dst = binary.AppendUvarint(dst, m.Seq)
	dst = appendString(dst, m.Code)
	return binary.AppendVarint(dst, m.RetryAfterMS)
}

// AppendHello appends m's payload encoding to dst.
func AppendHello(dst []byte, m *Hello) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.MinVersion))
	dst = binary.AppendUvarint(dst, uint64(m.MaxVersion))
	return appendString(dst, m.ClientName)
}

// AppendHelloAck appends m's payload encoding to dst.
func AppendHelloAck(dst []byte, m *HelloAck) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.Version))
	return appendString(dst, m.ServerName)
}

// AppendPing appends m's payload encoding to dst.
func AppendPing(dst []byte, m *Ping) []byte {
	return binary.AppendUvarint(dst, m.Seq)
}

// AppendPong appends m's payload encoding to dst.
func AppendPong(dst []byte, m *Pong) []byte {
	dst = binary.AppendUvarint(dst, m.Seq)
	return appendBool(dst, m.Draining)
}

// ---- decoders ---------------------------------------------------------

// dec is a latching payload decoder: the first failure sticks, every
// later read returns zero values, and finish reports the outcome plus a
// trailing-garbage check. All failures are *ProtocolError KindMalformed.
type dec struct {
	b   []byte
	off int
	err *ProtocolError
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = errMalformed(format, args...)
	}
}

func (d *dec) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("payload: %s: truncated or overlong varint at offset %d", what, d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) varint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("payload: %s: truncated or overlong varint at offset %d", what, d.off)
		return 0
	}
	d.off += n
	return v
}

// intv decodes a varint that must fit the host int.
func (d *dec) intv(what string) int {
	v := d.varint(what)
	if int64(int(v)) != v {
		d.fail("payload: %s: value %d overflows int", what, v)
		return 0
	}
	return int(v)
}

func (d *dec) f64(what string) float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b)-d.off < 8 {
		d.fail("payload: %s: truncated float64 at offset %d", what, d.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

func (d *dec) boolean(what string) bool {
	if d.err != nil {
		return false
	}
	if len(d.b) == d.off {
		d.fail("payload: %s: truncated bool at offset %d", what, d.off)
		return false
	}
	v := d.b[d.off]
	if v > 1 {
		d.fail("payload: %s: bool byte 0x%02x", what, v)
		return false
	}
	d.off++
	return v == 1
}

func (d *dec) str(what string) string {
	n := d.uvarint(what)
	if d.err != nil {
		return ""
	}
	if n > maxString {
		d.fail("payload: %s: string length %d exceeds the %d bound", what, n, maxString)
		return ""
	}
	if uint64(len(d.b)-d.off) < n {
		d.fail("payload: %s: truncated string at offset %d", what, d.off)
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// count decodes a list length bounded by MaxBatchPoints.
func (d *dec) count(what string) int {
	n := d.uvarint(what)
	if d.err != nil {
		return 0
	}
	if n > MaxBatchPoints {
		d.fail("payload: %s: count %d exceeds the %d bound", what, n, MaxBatchPoints)
		return 0
	}
	return int(n)
}

func (d *dec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return errMalformed("payload: %d trailing bytes after message", len(d.b)-d.off)
	}
	return nil
}

func (d *dec) protocol() ProtocolSpec {
	var p ProtocolSpec
	if d.err != nil {
		return p
	}
	if d.off >= len(d.b) {
		d.fail("payload: protocol: truncated tag")
		return p
	}
	switch tag := d.b[d.off]; tag {
	case 0:
		d.off++
		p.Name = d.str("protocol name")
		if d.err == nil && p.Name == "" {
			d.fail("payload: protocol: empty name")
		}
	case 1:
		d.off++
		n := d.count("protocol mods")
		p.Mods = make([]int, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			p.Mods = append(p.Mods, d.intv("protocol mod"))
		}
	default:
		d.fail("payload: protocol: unknown tag 0x%02x", tag)
	}
	return p
}

func (d *dec) workload() WorkloadSpec {
	var w WorkloadSpec
	if d.err != nil {
		return w
	}
	if len(d.b) == d.off {
		d.fail("payload: workload: truncated kind")
		return w
	}
	w.Kind = WorkloadKind(d.b[d.off])
	d.off++
	switch w.Kind {
	case WorkloadAppendixA:
		w.AppendixA = d.intv("workload appendix_a")
	case WorkloadStress:
	case WorkloadParams:
		f := &w.Params
		for _, p := range [...]*float64{
			&f.Tau, &f.PPrivate, &f.PSro, &f.PSw, &f.HPrivate, &f.HSro, &f.HSw,
			&f.RPrivate, &f.RSw, &f.AmodPrivate, &f.AmodSw, &f.CsupplySro,
			&f.CsupplySw, &f.WbCsupply, &f.RepP, &f.RepSw,
		} {
			*p = d.f64("workload param")
		}
		f.FixedParams = d.boolean("workload fixed_params")
	default:
		d.fail("payload: workload: unknown kind 0x%02x", byte(w.Kind))
	}
	return w
}

func (d *dec) timing() (bool, TimingSpec) {
	var t TimingSpec
	if !d.boolean("timing present") {
		return false, t
	}
	t.TSupply = d.f64("t_supply")
	t.TWrite = d.f64("t_write")
	t.TInval = d.f64("t_inval")
	t.DMem = d.f64("d_mem")
	t.BlockSize = d.intv("block_size")
	t.TBlock = d.f64("t_block")
	return d.err == nil, t
}

func (d *dec) options() (bool, OptionsSpec) {
	var o OptionsSpec
	if !d.boolean("options present") {
		return false, o
	}
	o.Tolerance = d.f64("tolerance")
	o.MaxIterations = d.intv("max_iterations")
	o.NoCacheInterference = d.boolean("no_cache_interference")
	o.NoMemoryInterference = d.boolean("no_memory_interference")
	o.NoResidualLife = d.boolean("no_residual_life")
	o.ExponentialBus = d.boolean("exponential_bus")
	o.NoArrivalCorrection = d.boolean("no_arrival_correction")
	o.SplitTransactionBus = d.boolean("split_transaction_bus")
	return d.err == nil, o
}

func (d *dec) budget() (bool, BudgetSpec) {
	var b BudgetSpec
	if !d.boolean("budget present") {
		return false, b
	}
	b.MaxStates = d.intv("max_states")
	b.GTPNTimeoutMS = d.varint("gtpn_timeout_ms")
	b.SimCycles = d.varint("sim_cycles")
	b.SimTimeoutMS = d.varint("sim_timeout_ms")
	b.Seed = d.uvarint("seed")
	return d.err == nil, b
}

func (d *dec) result() Result {
	var r Result
	r.N = d.intv("result n")
	r.Speedup = d.f64("speedup")
	r.ProcessingPower = d.f64("processing_power")
	r.R = d.f64("r")
	r.BusUtilization = d.f64("bus_utilization")
	r.BusWait = d.f64("bus_wait")
	r.MemUtilization = d.f64("mem_utilization")
	r.MemWait = d.f64("mem_wait")
	r.Iterations = d.intv("iterations")
	return r
}

// DecodeSolveRequest decodes a TypeSolveReq payload.
func DecodeSolveRequest(payload []byte) (SolveRequest, error) {
	d := dec{b: payload}
	var m SolveRequest
	m.Seq = d.uvarint("seq")
	m.Protocol = d.protocol()
	m.Workload = d.workload()
	m.N = d.intv("n")
	m.HasTiming, m.Timing = d.timing()
	m.HasOptions, m.Options = d.options()
	m.TimeoutMS = d.varint("timeout_ms")
	return m, d.finish()
}

// DecodeSolveResponse decodes a TypeSolveResp payload.
func DecodeSolveResponse(payload []byte) (SolveResponse, error) {
	d := dec{b: payload}
	var m SolveResponse
	m.Seq = d.uvarint("seq")
	m.Result = d.result()
	return m, d.finish()
}

// DecodeSolveBestRequest decodes a TypeSolveBestReq payload.
func DecodeSolveBestRequest(payload []byte) (SolveBestRequest, error) {
	d := dec{b: payload}
	var m SolveBestRequest
	m.Seq = d.uvarint("seq")
	m.Protocol = d.protocol()
	m.Workload = d.workload()
	m.N = d.intv("n")
	m.HasBudget, m.Budget = d.budget()
	m.TimeoutMS = d.varint("timeout_ms")
	return m, d.finish()
}

// DecodeSolveBestResponse decodes a TypeSolveBestResp payload.
func DecodeSolveBestResponse(payload []byte) (SolveBestResponse, error) {
	d := dec{b: payload}
	var m SolveBestResponse
	m.Seq = d.uvarint("seq")
	m.Method = snoopmva.Method(d.str("method"))
	m.Degraded = d.boolean("degraded")
	m.FallbackReason = d.str("fallback_reason")
	m.N = d.intv("n")
	m.Speedup = d.f64("speedup")
	m.R = d.f64("r")
	m.BusUtilization = d.f64("bus_utilization")
	return m, d.finish()
}

// DecodeSweepRequest decodes a TypeSweepReq payload.
func DecodeSweepRequest(payload []byte) (SweepRequest, error) {
	d := dec{b: payload}
	var m SweepRequest
	m.Seq = d.uvarint("seq")
	m.Protocol = d.protocol()
	m.Workload = d.workload()
	n := d.count("ns")
	m.Ns = make([]int, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		m.Ns = append(m.Ns, d.intv("ns entry"))
	}
	m.Parallel = d.boolean("parallel")
	m.TimeoutMS = d.varint("timeout_ms")
	return m, d.finish()
}

// DecodeSweepResponse decodes a TypeSweepResp payload.
func DecodeSweepResponse(payload []byte) (SweepResponse, error) {
	d := dec{b: payload}
	var m SweepResponse
	m.Seq = d.uvarint("seq")
	n := d.count("results")
	m.Results = make([]Result, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		m.Results = append(m.Results, d.result())
	}
	return m, d.finish()
}

// DecodeError decodes a TypeError payload.
func DecodeError(payload []byte) (ErrorMsg, error) {
	d := dec{b: payload}
	var m ErrorMsg
	m.Seq = d.uvarint("seq")
	m.Code = d.str("code")
	m.Msg = d.str("msg")
	return m, d.finish()
}

// DecodeBackpressure decodes a TypeBackpressure payload.
func DecodeBackpressure(payload []byte) (BackpressureMsg, error) {
	d := dec{b: payload}
	var m BackpressureMsg
	m.Seq = d.uvarint("seq")
	m.Code = d.str("code")
	m.RetryAfterMS = d.varint("retry_after_ms")
	return m, d.finish()
}

// DecodeHello decodes a TypeHello payload.
func DecodeHello(payload []byte) (Hello, error) {
	d := dec{b: payload}
	var m Hello
	m.MinVersion = uint32(d.uvarint("min_version"))
	m.MaxVersion = uint32(d.uvarint("max_version"))
	m.ClientName = d.str("client_name")
	return m, d.finish()
}

// DecodeHelloAck decodes a TypeHelloAck payload.
func DecodeHelloAck(payload []byte) (HelloAck, error) {
	d := dec{b: payload}
	var m HelloAck
	m.Version = uint32(d.uvarint("version"))
	m.ServerName = d.str("server_name")
	return m, d.finish()
}

// DecodePing decodes a TypePing payload.
func DecodePing(payload []byte) (Ping, error) {
	d := dec{b: payload}
	var m Ping
	m.Seq = d.uvarint("seq")
	return m, d.finish()
}

// DecodePong decodes a TypePong payload.
func DecodePong(payload []byte) (Pong, error) {
	d := dec{b: payload}
	var m Pong
	m.Seq = d.uvarint("seq")
	m.Draining = d.boolean("draining")
	return m, d.finish()
}
