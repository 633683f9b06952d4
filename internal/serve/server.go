package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/experiments"
)

// Options configures a Server. The zero value of any field selects the
// documented default, so Options{} is a usable production config.
type Options struct {
	// Queue bounds cold evaluations admitted (queued + running); a full
	// queue answers 429 queue-full. Default 64.
	Queue int
	// Workers caps concurrently running evaluations. Default 4.
	Workers int
	// AdhocWorkers caps the ad-hoc class (kernel_source / machine_json
	// requests) below Workers so unbounded-universe uploads cannot starve
	// registry traffic. Default max(1, Workers/2).
	AdhocWorkers int
	// ShedWatermark is the queue-occupancy fraction beyond which cold
	// requests are shed with 429 + Retry-After while cached results keep
	// serving. Default 0.75.
	ShedWatermark float64
	// LRUSize bounds the shared result cache (records). Default 1024.
	LRUSize int
	// DefaultTimeout is the per-request evaluation budget when the client
	// sends no Request-Timeout header. Default 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps any client-requested budget. Default 2m.
	MaxTimeout time.Duration
	// MaxCycles is the default simulated-cycle budget per evaluation
	// (0 = unlimited); a request's max_cycles is clamped to it when set.
	MaxCycles uint64
	// BodyLimit caps request-body bytes. Default 1 MiB.
	BodyLimit int64
	// BodyTimeout bounds reading the request body (slow-loris guard).
	// Default 10s.
	BodyTimeout time.Duration
	// DrainTimeout bounds the graceful drain after the serve context is
	// canceled; in-flight work past it is force-canceled. Default 15s.
	DrainTimeout time.Duration
	// Checkpoint, when set, is a JSONL checkpoint path (PR 5 format):
	// restored records warm the LRU at startup and computed cells are
	// appended, under the checkpoint lockfile (a concurrent CLI sweep on
	// the same file is rejected).
	Checkpoint string
}

// withDefaults resolves every zero field.
func (o Options) withDefaults() Options {
	if o.Queue <= 0 {
		o.Queue = 64
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.AdhocWorkers <= 0 {
		o.AdhocWorkers = (o.Workers + 1) / 2
	}
	if o.AdhocWorkers > o.Workers {
		o.AdhocWorkers = o.Workers
	}
	if o.ShedWatermark <= 0 || o.ShedWatermark > 1 {
		o.ShedWatermark = 0.75
	}
	if o.LRUSize <= 0 {
		o.LRUSize = 1024
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 2 * time.Minute
	}
	if o.BodyLimit <= 0 {
		o.BodyLimit = 1 << 20
	}
	if o.BodyTimeout <= 0 {
		o.BodyTimeout = 10 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 15 * time.Second
	}
	return o
}

// Server is the topomapd request pipeline. See the package comment for the
// layering; Serve runs it on a listener until the context is canceled,
// then drains.
type Server struct {
	opts    Options
	lru     *experiments.ResultLRU
	flights *experiments.FlightGroup
	ckpt    *experiments.CheckpointFile

	// queue admits cold evaluations (queued + running); slots and
	// adhocSlots cap the running classes.
	queue      chan struct{}
	slots      chan struct{}
	adhocSlots chan struct{}
	shedMark   int

	draining atomic.Bool
	evalBase context.Context
	evalStop context.CancelFunc
	httpSrv  *http.Server

	stats struct {
		requests, lruHits, coalesced, computed atomic.Uint64
		cellFails, shed, queueFull, panics     atomic.Uint64
	}
}

// ServeGrid is the grid-signature tag topomapd checkpoints carry. Cell
// keys are self-describing (kernel, machine, scheme, config, digests), so
// every topomapd instance shares one signature and any topomapd can warm
// from any topomapd checkpoint — but a CLI sweep's checkpoint (whose grid
// signature encodes its flag set) is still rejected.
const ServeGrid = "topomapd"

// New builds a Server, opening (and locking) the warm checkpoint when one
// is configured. Call Close to release it.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	s := &Server{
		opts:       opts,
		lru:        experiments.NewResultLRU(opts.LRUSize),
		flights:    experiments.NewFlightGroup(),
		queue:      make(chan struct{}, opts.Queue),
		slots:      make(chan struct{}, opts.Workers),
		adhocSlots: make(chan struct{}, opts.AdhocWorkers),
		shedMark:   int(opts.ShedWatermark * float64(opts.Queue)),
	}
	if s.shedMark < 1 {
		s.shedMark = 1
	}
	if opts.Checkpoint != "" {
		ckpt, err := experiments.OpenCheckpoint(opts.Checkpoint, experiments.GridSignature(ServeGrid))
		if err != nil {
			return nil, err
		}
		s.ckpt = ckpt
		for _, rec := range ckpt.Restored() {
			s.lru.Add(rec.Key, rec)
		}
	}
	return s, nil
}

// Close releases the server's checkpoint (and its lockfile), if any.
func (s *Server) Close() error {
	if s.ckpt == nil {
		return nil
	}
	err := s.ckpt.Close()
	s.ckpt = nil
	return err
}

// Handler returns the server's routed handler with per-request panic
// containment: a panicking handler answers a 503 handler-panic envelope
// (when the header is still unsent) instead of killing the connection
// without a body or taking the process down.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/map", s.serveMap)
	mux.HandleFunc("/healthz", s.serveHealthz)
	mux.HandleFunc("/readyz", s.serveReadyz)
	mux.HandleFunc("/statusz", s.serveStatusz)
	return s.contained(mux)
}

// contained wraps next with the panic-to-503 boundary.
func (s *Server) contained(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw := &trackingWriter{ResponseWriter: w}
		defer func() {
			if v := recover(); v != nil {
				s.stats.panics.Add(1)
				if !tw.wrote {
					status, env := errorEnvelope(StagePanic, fmt.Sprintf("request handler panicked: %v", v), 0)
					writeEnvelope(tw, status, env)
				}
			}
		}()
		next.ServeHTTP(tw, r)
	})
}

// trackingWriter records whether the response header went out, so the
// panic boundary knows when an envelope can still be written.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (t *trackingWriter) WriteHeader(status int) {
	t.wrote = true
	t.ResponseWriter.WriteHeader(status)
}

func (t *trackingWriter) Write(p []byte) (int, error) {
	t.wrote = true
	return t.ResponseWriter.Write(p)
}

// Serve runs the hardened HTTP server on ln until ctx is canceled, then
// drains: readiness drops, new requests get 503, in-flight requests finish
// under DrainTimeout, stragglers are force-canceled. Returns nil after a
// clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.evalBase, s.evalStop = context.WithCancel(context.WithoutCancel(ctx))
	defer s.evalStop()
	srv := Harden(&http.Server{Handler: s.Handler()})
	s.httpSrv = srv

	drained := make(chan error, 1)
	stopDrainer := context.AfterFunc(ctx, func() {
		s.draining.Store(true)
		dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), s.opts.DrainTimeout)
		defer cancel()
		err := Shutdown(dctx, srv)
		s.evalStop() // whatever outlived the drain deadline is canceled now
		drained <- err
	})

	err := srv.Serve(ln)
	if !errors.Is(err, http.ErrServerClosed) {
		stopDrainer()
		return err
	}
	if derr := <-drained; derr != nil {
		return fmt.Errorf("serve: drain: %w", derr)
	}
	return nil
}

// parsed is a decoded, resolved, keyed request ready to evaluate.
type parsed struct {
	req     *MapRequest
	kernel  *repro.Kernel
	machine *repro.Machine
	scheme  repro.Scheme
	cfg     repro.Config
	key     string
	adhoc   bool
	timeout time.Duration
}

// serveMap is the /v1/map evaluation pipeline.
func (s *Server) serveMap(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	if r.Method != http.MethodPost {
		status, env := errorEnvelope(StageMethod, fmt.Sprintf("%s requires POST", r.URL.Path), 0)
		writeEnvelope(w, status, env)
		return
	}
	if s.draining.Load() {
		status, env := errorEnvelope(StageDraining, "server is draining", 1000)
		writeEnvelope(w, status, env)
		return
	}
	p, stage, perr := s.parseRequest(w, r)
	if perr != nil {
		status, env := errorEnvelope(stage, perr.Error(), 0)
		writeEnvelope(w, status, env)
		return
	}

	// Cache first: hits serve even above the shed watermark.
	if rec, ok := s.lru.Get(p.key); ok {
		s.stats.lruHits.Add(1)
		s.respond(w, p, rec, nil, "lru")
		return
	}

	f, leader := s.flights.Join(p.key)
	// Exactly one Leave per Join: on client disconnect (AfterFunc fires)
	// or on handler exit (stop() wins).
	stop := context.AfterFunc(r.Context(), f.Leave)
	defer func() {
		if stop() {
			f.Leave()
		}
	}()

	if !leader {
		s.stats.coalesced.Add(1)
		rec, ce, werr := f.Wait(r.Context())
		if werr != nil {
			// The client vanished (or its deadline passed) while waiting;
			// mostly unobservable, but answer in case it is still there.
			status, env := errorEnvelope("canceled", "request canceled while coalesced: "+werr.Error(), 0)
			writeEnvelope(w, status, env)
			return
		}
		s.respond(w, p, rec, ce, "coalesced")
		return
	}

	// Leader: whatever happens below, the flight must resolve — a leader
	// that panicked out of the pipeline resolves as a contained panic so
	// followers never hang (Resolve is idempotent; the normal paths win).
	defer f.Resolve(nil, &experiments.CellError{
		Key: p.key, Stage: "panic",
		Err: errors.New("evaluation abandoned by a panicking handler"), Attempts: 1,
	})

	rec, ce, source := s.admitAndEvaluate(r, f, p)
	f.Resolve(rec, ce)
	s.respond(w, p, rec, ce, source)
}

// admitAndEvaluate runs the leader's half: admission (queue bound,
// watermark shed, class slot), then evaluation under the flight-scoped
// deadline, then cache/checkpoint fill.
func (s *Server) admitAndEvaluate(r *http.Request, f *experiments.Flight, p *parsed) (*experiments.CheckpointRecord, *experiments.CellError, string) {
	select {
	case s.queue <- struct{}{}:
	default:
		s.stats.queueFull.Add(1)
		return nil, shedError(p.key, StageQueueFull, "admission queue full", 2000), StageQueueFull
	}
	defer func() { <-s.queue }()

	if occ := len(s.queue); occ > s.shedMark {
		s.stats.shed.Add(1)
		return nil, shedError(p.key, StageShed,
			fmt.Sprintf("load shedding cold requests (queue %d/%d over watermark %d); cached results still serve", occ, s.opts.Queue, s.shedMark), 1000), StageShed
	}

	// The evaluation context: canceled when every interested client has
	// disconnected (flight waiter count), when the budget expires, or
	// when a drain passes its deadline — never merely because the leader
	// request ended.
	evalCtx, cancel := context.WithTimeout(s.evalBase, p.timeout)
	defer cancel()
	f.SetCancel(cancel)

	slots := s.slots
	if p.adhoc {
		slots = s.adhocSlots
	}
	select {
	case slots <- struct{}{}:
	case <-evalCtx.Done():
		return nil, experiments.NewCellError(p.key, 1, fmt.Errorf("waiting for a worker slot: %w", evalCtx.Err())), "admission"
	}
	defer func() { <-slots }()

	run, err := repro.EvaluateContext(evalCtx, p.kernel, p.machine, p.scheme, p.cfg)
	if err != nil {
		s.stats.cellFails.Add(1)
		return nil, experiments.NewCellError(p.key, 1, err), "computed"
	}
	s.stats.computed.Add(1)
	rec := experiments.RecordForRun(p.key, run)
	s.lru.Add(p.key, rec)
	if s.ckpt != nil {
		s.ckpt.Append(rec)
	}
	return rec, nil, "computed"
}

// shedError is the CellError form of an admission rejection, so coalesced
// followers of a shed leader see the same retryable answer.
func shedError(key, stage, msg string, retryAfterMS int64) *experiments.CellError {
	return &experiments.CellError{Key: key, Stage: stage,
		Err: fmt.Errorf("%s (retry after %dms)", msg, retryAfterMS), Attempts: 1}
}

// respond renders the pipeline outcome for one client.
func (s *Server) respond(w http.ResponseWriter, p *parsed, rec *experiments.CheckpointRecord, ce *experiments.CellError, source string) {
	switch {
	case rec != nil:
		res := resultFromRecord(rec, p.kernel.Name, p.machine.Name, p.req.Scheme, source)
		w.Header().Set("Content-Type", "application/json")
		data, err := json.Marshal(&Envelope{OK: true, Result: res})
		if err != nil {
			status, env := errorEnvelope("evaluate", "encoding result: "+err.Error(), 0)
			writeEnvelope(w, status, env)
			return
		}
		_, _ = w.Write(data)
	case ce != nil:
		var retryAfter int64
		if ce.Stage == StageShed || ce.Stage == StageQueueFull {
			retryAfter = 1000
		}
		status, env := errorEnvelope(ce.Stage, ce.Error(), retryAfter)
		writeEnvelope(w, status, env)
	default:
		// A skipped flight (leader resolved with neither) cannot happen;
		// degrade to a structured 500 rather than an empty body.
		status, env := errorEnvelope("evaluate", "evaluation produced no result", 0)
		writeEnvelope(w, status, env)
	}
}

// parseRequest reads the bounded body under the slow-loris deadline,
// decodes it, resolves kernel/machine/scheme, and builds the cell key.
// On failure the returned stage selects the envelope.
func (s *Server) parseRequest(w http.ResponseWriter, r *http.Request) (*parsed, string, error) {
	rc := http.NewResponseController(w)
	// Bound body arrival; ignore the error (some wrapped test writers
	// cannot set deadlines — then ReadTimeout still bounds us).
	_ = rc.SetReadDeadline(time.Now().Add(s.opts.BodyTimeout))
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.BodyLimit))
	_ = rc.SetReadDeadline(time.Time{})
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, StageBodySize, fmt.Errorf("request body over %d bytes", s.opts.BodyLimit)
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return nil, StageBodySlow, fmt.Errorf("request body did not arrive within %v", s.opts.BodyTimeout)
		}
		return nil, StageDecode, fmt.Errorf("reading request body: %w", err)
	}
	req := &MapRequest{}
	if err := json.Unmarshal(body, req); err != nil {
		return nil, StageDecode, fmt.Errorf("decoding request: %w", err)
	}

	p := &parsed{req: req}
	if err := s.resolve(p); err != nil {
		return nil, "validate", err
	}
	p.timeout = s.requestTimeout(r)
	return p, "", nil
}

// resolve fills the kernel, machine, scheme, config and cell key from the
// wire request. Every rejection here is stage "validate" (400).
func (s *Server) resolve(p *parsed) error {
	req := p.req
	var err error
	var srcDigest string
	switch {
	case req.Kernel != "" && req.KernelSource != "":
		return errors.New("request sets both kernel and kernel_source; pick one")
	case req.Kernel != "":
		if p.kernel, err = repro.KernelByName(req.Kernel); err != nil {
			return err
		}
	case req.KernelSource != "":
		p.adhoc = true
		name := req.KernelName
		if name == "" {
			name = "adhoc"
		}
		if p.kernel, err = repro.CompileKernel(name, req.KernelSource); err != nil {
			return fmt.Errorf("compiling kernel_source: %w", err)
		}
		srcDigest = digest(req.KernelSource)
	default:
		return errors.New("request needs kernel or kernel_source")
	}

	var machDigest string
	switch {
	case req.Machine != "" && len(req.MachineJSON) > 0:
		return errors.New("request sets both machine and machine_json; pick one")
	case req.Machine != "":
		if p.machine, err = repro.MachineByName(req.Machine); err != nil {
			return err
		}
	case len(req.MachineJSON) > 0:
		p.adhoc = true
		if p.machine, err = repro.LoadMachine(req.MachineJSON); err != nil {
			return err
		}
		if n := p.machine.NumCores(); n > maxUploadCores {
			return fmt.Errorf("machine_json has %d cores, over the %d-core limit", n, maxUploadCores)
		}
		machDigest = digest(string(req.MachineJSON))
	default:
		return errors.New("request needs machine or machine_json")
	}

	if req.Scheme == "" {
		req.Scheme = "combined"
	}
	if p.scheme, err = parseScheme(req.Scheme); err != nil {
		return err
	}

	cfg := repro.DefaultConfig()
	if req.BlockBytes != 0 {
		cfg.BlockBytes = req.BlockBytes
	}
	if req.Passes > maxUploadPasses {
		return fmt.Errorf("passes %d over the limit %d", req.Passes, maxUploadPasses)
	}
	cfg.Passes = req.Passes
	cfg.MaxSimCycles = s.opts.MaxCycles
	if req.MaxCycles != 0 {
		cfg.MaxSimCycles = req.MaxCycles
		if s.opts.MaxCycles != 0 && req.MaxCycles > s.opts.MaxCycles {
			cfg.MaxSimCycles = s.opts.MaxCycles
		}
	}
	if req.Check != "" {
		if cfg.Check, err = repro.ParseCheckMode(req.Check); err != nil {
			return err
		}
	}
	p.cfg = cfg

	key := experiments.Cell{Kernel: p.kernel, Machine: p.machine, Scheme: p.scheme, Config: cfg}.Key()
	// Ad-hoc inputs key by content digest too: two uploads sharing a name
	// must never collide in the cache.
	if srcDigest != "" {
		key += "|src=" + srcDigest
	}
	if machDigest != "" {
		key += "|machjson=" + machDigest
	}
	p.key = key
	return nil
}

// Upload guards: structural caps on ad-hoc inputs (the body limit bounds
// raw bytes; these bound what the bytes expand into).
const (
	maxUploadCores  = 4096
	maxUploadPasses = 64
)

// digest hashes ad-hoc request content into a short stable token.
func digest(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s)) //lint:ignore cellboundary hash.Hash.Write never returns an error (hash package contract)
	return fmt.Sprintf("%016x", h.Sum64())
}

// requestTimeout resolves the evaluation budget: the Request-Timeout
// header (a Go duration like "2s", or whole seconds) clamped to
// MaxTimeout; DefaultTimeout without one.
func (s *Server) requestTimeout(r *http.Request) time.Duration {
	h := r.Header.Get("Request-Timeout")
	if h == "" {
		return s.opts.DefaultTimeout
	}
	d, err := time.ParseDuration(h)
	if err != nil {
		if secs, serr := strconv.Atoi(h); serr == nil {
			d = time.Duration(secs) * time.Second
		} else {
			return s.opts.DefaultTimeout
		}
	}
	if d <= 0 {
		return s.opts.DefaultTimeout
	}
	if d > s.opts.MaxTimeout {
		d = s.opts.MaxTimeout
	}
	return d
}

// parseScheme maps the wire scheme names (the same vocabulary the CLIs
// use) to repro schemes.
func parseScheme(s string) (repro.Scheme, error) {
	switch s {
	case "base":
		return repro.SchemeBase, nil
	case "base+", "baseplus":
		return repro.SchemeBasePlus, nil
	case "local":
		return repro.SchemeLocal, nil
	case "topology", "topologyaware", "ta":
		return repro.SchemeTopologyAware, nil
	case "combined":
		return repro.SchemeCombined, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q", s)
	}
}

// serveHealthz answers 200 while the process lives — liveness, nothing
// more.
func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	_, _ = io.WriteString(w, "ok\n")
}

// serveReadyz answers 200 while accepting work and 503 once draining, so
// load balancers stop routing before the listener closes.
func (s *Server) serveReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, "draining\n")
		return
	}
	_, _ = io.WriteString(w, "ready\n")
}

// Status is the /statusz payload: counters plus the degradation state.
type Status struct {
	Requests  uint64 `json:"requests"`
	LRUHits   uint64 `json:"lru_hits"`
	Coalesced uint64 `json:"coalesced"`
	Computed  uint64 `json:"computed"`
	CellFails uint64 `json:"cell_fails"`
	Shed      uint64 `json:"shed"`
	QueueFull uint64 `json:"queue_full"`
	Panics    uint64 `json:"panics"`

	QueueDepth int  `json:"queue_depth"`
	QueueCap   int  `json:"queue_cap"`
	ShedMark   int  `json:"shed_mark"`
	Inflight   int  `json:"inflight"`
	LRULen     int  `json:"lru_len"`
	LRUCap     int  `json:"lru_cap"`
	Draining   bool `json:"draining"`
}

// CurrentStatus snapshots the server's counters (also used by tests and
// the chaos harness to assert bounded state).
func (s *Server) CurrentStatus() Status {
	return Status{
		Requests:   s.stats.requests.Load(),
		LRUHits:    s.stats.lruHits.Load(),
		Coalesced:  s.stats.coalesced.Load(),
		Computed:   s.stats.computed.Load(),
		CellFails:  s.stats.cellFails.Load(),
		Shed:       s.stats.shed.Load(),
		QueueFull:  s.stats.queueFull.Load(),
		Panics:     s.stats.panics.Load(),
		QueueDepth: len(s.queue),
		QueueCap:   s.opts.Queue,
		ShedMark:   s.shedMark,
		Inflight:   s.flights.Inflight(),
		LRULen:     s.lru.Len(),
		LRUCap:     s.lru.Cap(),
		Draining:   s.draining.Load(),
	}
}

func (s *Server) serveStatusz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	st := s.CurrentStatus()
	data, err := json.Marshal(&st)
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	_, _ = w.Write(data)
}
