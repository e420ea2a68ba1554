package wire

import (
	"encoding/binary"
	"math"

	"snoopmva"
)

// The payload schemas of protocol version 2. Every message begins with
// the request's sequence id, so responses (which arrive in completion
// order, not request order) can be matched without decoding the rest —
// PeekSeq is that fast path.
//
// Each request is declared once, here, and is the schema of both
// transports: the structs carry the HTTP API's JSON tags and optional
// pointers (internal/snoopd names them as aliases). The codec writes a
// presence byte for each optional pointer and a kind byte for the
// workload arm that is set. The sequence id is a transport field:
// Append*Request takes it and Decode*Request returns it. Workload,
// Timing, Options and Result are the root package's types, encoded field
// by field; every response carries the whole Result, one encoder and one
// decoder for all three. The equivalence suite drives identical
// requests through both transports and asserts bitwise-equal answers.

// ProtocolSpec names a protocol either by preset name (case-insensitive:
// "Write-Once", "Synapse", "Berkeley", "Illinois", "Dragon", "RWB",
// "Write-Through") or as an explicit set of the paper's modifications.
// The binary codec encodes one arm: Name when non-empty, otherwise Mods
// (an empty list there is the base protocol).
type ProtocolSpec struct {
	Name string `json:"name,omitempty"`
	Mods []int  `json:"mods,omitempty"`
}

// WorkloadSpec selects a workload: one of the paper's Appendix A sharing
// levels (1, 5 or 20), the Section 4.3 stress test, or fully spelled-out
// parameters. The binary codec encodes one arm, the first set of
// appendix_a, stress and params; the zero spec encodes as appendix level
// 0. Decoding sets exactly the encoded arm.
type WorkloadSpec struct {
	AppendixA *int               `json:"appendix_a,omitempty"`
	Stress    bool               `json:"stress,omitempty"`
	Params    *snoopmva.Workload `json:"params,omitempty"`
}

// The workload kind bytes.
const (
	kindAppendixA = 0
	kindStress    = 1
	kindParams    = 2
)

// BudgetSpec is snoopmva.Budget as a request carries it: stage budgets
// for the SolveBest degradation ladder, with wall-clock budgets in
// milliseconds.
type BudgetSpec struct {
	MaxStates     int    `json:"max_states,omitempty"`
	GTPNTimeoutMS int64  `json:"gtpn_timeout_ms,omitempty"`
	SimCycles     int64  `json:"sim_cycles,omitempty"`
	SimTimeoutMS  int64  `json:"sim_timeout_ms,omitempty"`
	Seed          uint64 `json:"seed,omitempty"`
}

// Result is the answer record of every model, encoded field by field.
type Result = snoopmva.Result

// SolveRequest is the body of POST /v1/solve and the payload of
// TypeSolveReq. A nil Timing or Options means the paper's defaults.
type SolveRequest struct {
	Protocol  ProtocolSpec      `json:"protocol"`
	Workload  WorkloadSpec      `json:"workload"`
	N         int               `json:"n"`
	Timing    *snoopmva.Timing  `json:"timing,omitempty"`
	Options   *snoopmva.Options `json:"options,omitempty"`
	TimeoutMS int64             `json:"timeout_ms,omitempty"`
}

// SolveResponse is the payload of TypeSolveResp and TypeSolveBestResp.
type SolveResponse struct {
	Seq    uint64
	Result Result
}

// SolveBestRequest is the body of POST /v1/solvebest and the payload
// of TypeSolveBestReq: one grid point of a campaign, driven through the
// GTPN → simulation → MVA degradation ladder under the given budget (nil
// is the zero budget).
type SolveBestRequest struct {
	Protocol  ProtocolSpec `json:"protocol"`
	Workload  WorkloadSpec `json:"workload"`
	N         int          `json:"n"`
	Budget    *BudgetSpec  `json:"budget,omitempty"`
	TimeoutMS int64        `json:"timeout_ms,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep and the payload of
// TypeSweepReq. Parallel runs the sizes on a worker pool instead of one
// at a time; every size is a cold solve, so it changes the scheduling and
// never the answers.
type SweepRequest struct {
	Protocol  ProtocolSpec `json:"protocol"`
	Workload  WorkloadSpec `json:"workload"`
	Ns        []int        `json:"ns"`
	Parallel  bool         `json:"parallel,omitempty"`
	TimeoutMS int64        `json:"timeout_ms,omitempty"`
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
	switch {
	case w.AppendixA != nil:
		dst = append(dst, kindAppendixA)
		return binary.AppendVarint(dst, int64(*w.AppendixA))
	case w.Stress:
		return append(dst, kindStress)
	case w.Params != nil:
		return appendParams(append(dst, kindParams), w.Params)
	}
	return append(dst, kindAppendixA, 0) // the zero spec: appendix level 0
}

// appendParams encodes a spelled-out workload: the params arm of a
// workload spec, and a result's observed workload.
func appendParams(dst []byte, f *snoopmva.Workload) []byte {
	for _, v := range [...]float64{
		f.Tau, f.PPrivate, f.PSro, f.PSw, f.HPrivate, f.HSro, f.HSw,
		f.RPrivate, f.RSw, f.AmodPrivate, f.AmodSw, f.CsupplySro,
		f.CsupplySw, f.WbCsupply, f.RepP, f.RepSw,
	} {
		dst = appendFloat(dst, v)
	}
	return appendBool(dst, f.FixedParams)
}

func appendTiming(dst []byte, t *snoopmva.Timing) []byte {
	dst = appendBool(dst, t != nil)
	if t == nil {
		return dst
	}
	dst = appendFloat(dst, t.TSupply)
	dst = appendFloat(dst, t.TWrite)
	dst = appendFloat(dst, t.TInval)
	dst = appendFloat(dst, t.DMem)
	dst = binary.AppendVarint(dst, int64(t.BlockSize))
	return appendFloat(dst, t.TBlock)
}

func appendOptions(dst []byte, o *snoopmva.Options) []byte {
	dst = appendBool(dst, o != nil)
	if o == nil {
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

func appendBudget(dst []byte, b *BudgetSpec) []byte {
	dst = appendBool(dst, b != nil)
	if b == nil {
		return dst
	}
	dst = binary.AppendVarint(dst, int64(b.MaxStates))
	dst = binary.AppendVarint(dst, b.GTPNTimeoutMS)
	dst = binary.AppendVarint(dst, b.SimCycles)
	dst = binary.AppendVarint(dst, b.SimTimeoutMS)
	return binary.AppendUvarint(dst, b.Seed)
}

func appendResult(dst []byte, r *Result) []byte {
	dst = appendString(dst, string(r.Method))
	dst = appendBool(dst, r.Degraded)
	dst = appendString(dst, r.FallbackReason)
	dst = binary.AppendVarint(dst, int64(r.N))
	dst = appendFloat(dst, r.Speedup)
	dst = appendFloat(dst, r.ProcessingPower)
	dst = appendFloat(dst, r.R)
	dst = appendFloat(dst, r.BusUtilization)
	dst = appendFloat(dst, r.BusWait)
	dst = appendFloat(dst, r.MemUtilization)
	dst = appendFloat(dst, r.MemWait)
	dst = binary.AppendVarint(dst, int64(r.Iterations))
	dst = binary.AppendVarint(dst, int64(r.States))
	dst = appendFloat(dst, r.SpeedupLow)
	dst = appendFloat(dst, r.SpeedupHigh)
	dst = appendBool(dst, r.Observed != nil)
	if r.Observed == nil {
		return dst
	}
	return appendParams(dst, r.Observed)
}

// AppendSolveRequest appends the payload encoding of m under sequence
// id seq to dst.
func AppendSolveRequest(dst []byte, seq uint64, m *SolveRequest) []byte {
	dst = binary.AppendUvarint(dst, seq)
	dst = appendProtocol(dst, m.Protocol)
	dst = appendWorkload(dst, m.Workload)
	dst = binary.AppendVarint(dst, int64(m.N))
	dst = appendTiming(dst, m.Timing)
	dst = appendOptions(dst, m.Options)
	return binary.AppendVarint(dst, m.TimeoutMS)
}

// AppendSolveResponse appends m's payload encoding to dst.
func AppendSolveResponse(dst []byte, m *SolveResponse) []byte {
	dst = binary.AppendUvarint(dst, m.Seq)
	return appendResult(dst, &m.Result)
}

// AppendSolveBestRequest appends the payload encoding of m under
// sequence id seq to dst.
func AppendSolveBestRequest(dst []byte, seq uint64, m *SolveBestRequest) []byte {
	dst = binary.AppendUvarint(dst, seq)
	dst = appendProtocol(dst, m.Protocol)
	dst = appendWorkload(dst, m.Workload)
	dst = binary.AppendVarint(dst, int64(m.N))
	dst = appendBudget(dst, m.Budget)
	return binary.AppendVarint(dst, m.TimeoutMS)
}

// AppendSweepRequest appends the payload encoding of m under sequence
// id seq to dst.
func AppendSweepRequest(dst []byte, seq uint64, m *SweepRequest) []byte {
	dst = binary.AppendUvarint(dst, seq)
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
		dst = appendResult(dst, &m.Results[i])
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
	kind := d.b[d.off]
	d.off++
	switch kind {
	case kindAppendixA:
		lvl := d.intv("workload appendix_a")
		w.AppendixA = &lvl
	case kindStress:
		w.Stress = true
	case kindParams:
		w.Params = d.params()
	default:
		d.fail("payload: workload: unknown kind 0x%02x", kind)
	}
	return w
}

// params decodes what appendParams encodes.
func (d *dec) params() *snoopmva.Workload {
	f := new(snoopmva.Workload)
	for _, p := range [...]*float64{
		&f.Tau, &f.PPrivate, &f.PSro, &f.PSw, &f.HPrivate, &f.HSro, &f.HSw,
		&f.RPrivate, &f.RSw, &f.AmodPrivate, &f.AmodSw, &f.CsupplySro,
		&f.CsupplySw, &f.WbCsupply, &f.RepP, &f.RepSw,
	} {
		*p = d.f64("workload param")
	}
	f.FixedParams = d.boolean("workload fixed_params")
	return f
}

func (d *dec) timing() *snoopmva.Timing {
	if !d.boolean("timing present") {
		return nil
	}
	t := new(snoopmva.Timing)
	t.TSupply = d.f64("t_supply")
	t.TWrite = d.f64("t_write")
	t.TInval = d.f64("t_inval")
	t.DMem = d.f64("d_mem")
	t.BlockSize = d.intv("block_size")
	t.TBlock = d.f64("t_block")
	return t
}

func (d *dec) options() *snoopmva.Options {
	if !d.boolean("options present") {
		return nil
	}
	o := new(snoopmva.Options)
	o.Tolerance = d.f64("tolerance")
	o.MaxIterations = d.intv("max_iterations")
	o.NoCacheInterference = d.boolean("no_cache_interference")
	o.NoMemoryInterference = d.boolean("no_memory_interference")
	o.NoResidualLife = d.boolean("no_residual_life")
	o.ExponentialBus = d.boolean("exponential_bus")
	o.NoArrivalCorrection = d.boolean("no_arrival_correction")
	o.SplitTransactionBus = d.boolean("split_transaction_bus")
	return o
}

func (d *dec) budget() *BudgetSpec {
	if !d.boolean("budget present") {
		return nil
	}
	b := new(BudgetSpec)
	b.MaxStates = d.intv("max_states")
	b.GTPNTimeoutMS = d.varint("gtpn_timeout_ms")
	b.SimCycles = d.varint("sim_cycles")
	b.SimTimeoutMS = d.varint("sim_timeout_ms")
	b.Seed = d.uvarint("seed")
	return b
}

func (d *dec) result() Result {
	var r Result
	r.Method = snoopmva.Method(d.str("method"))
	r.Degraded = d.boolean("degraded")
	r.FallbackReason = d.str("fallback_reason")
	r.N = d.intv("result n")
	r.Speedup = d.f64("speedup")
	r.ProcessingPower = d.f64("processing_power")
	r.R = d.f64("r")
	r.BusUtilization = d.f64("bus_utilization")
	r.BusWait = d.f64("bus_wait")
	r.MemUtilization = d.f64("mem_utilization")
	r.MemWait = d.f64("mem_wait")
	r.Iterations = d.intv("iterations")
	r.States = d.intv("states")
	r.SpeedupLow = d.f64("speedup_low")
	r.SpeedupHigh = d.f64("speedup_high")
	if d.boolean("observed present") {
		r.Observed = d.params()
	}
	return r
}

// DecodeSolveRequest decodes a TypeSolveReq payload into its sequence
// id and request.
func DecodeSolveRequest(payload []byte) (seq uint64, m SolveRequest, err error) {
	d := dec{b: payload}
	seq = d.uvarint("seq")
	m.Protocol = d.protocol()
	m.Workload = d.workload()
	m.N = d.intv("n")
	m.Timing = d.timing()
	m.Options = d.options()
	m.TimeoutMS = d.varint("timeout_ms")
	return seq, m, d.finish()
}

// DecodeSolveResponse decodes a TypeSolveResp or TypeSolveBestResp
// payload.
func DecodeSolveResponse(payload []byte) (SolveResponse, error) {
	d := dec{b: payload}
	var m SolveResponse
	m.Seq = d.uvarint("seq")
	m.Result = d.result()
	return m, d.finish()
}

// DecodeSolveBestRequest decodes a TypeSolveBestReq payload into its
// sequence id and request.
func DecodeSolveBestRequest(payload []byte) (seq uint64, m SolveBestRequest, err error) {
	d := dec{b: payload}
	seq = d.uvarint("seq")
	m.Protocol = d.protocol()
	m.Workload = d.workload()
	m.N = d.intv("n")
	m.Budget = d.budget()
	m.TimeoutMS = d.varint("timeout_ms")
	return seq, m, d.finish()
}

// DecodeSweepRequest decodes a TypeSweepReq payload into its sequence
// id and request.
func DecodeSweepRequest(payload []byte) (seq uint64, m SweepRequest, err error) {
	d := dec{b: payload}
	seq = d.uvarint("seq")
	m.Protocol = d.protocol()
	m.Workload = d.workload()
	n := d.count("ns")
	m.Ns = make([]int, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		m.Ns = append(m.Ns, d.intv("ns entry"))
	}
	m.Parallel = d.boolean("parallel")
	m.TimeoutMS = d.varint("timeout_ms")
	return seq, m, d.finish()
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
