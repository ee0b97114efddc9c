package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The daemon's traffic: open loop at a constant rate, nine task submissions
// for every report read, and a /metrics scrape once a second, over at most
// nproc keep-alive connections.
const (
	serveRefRate      = 1500.0 // requests per second in the reference phase
	serveSpinWindow   = 100 * time.Microsecond
	serveWarmup       = 1500 * time.Millisecond
	serveRefPhase     = 3 * time.Second
	serveStepPhase    = time.Second
	serveStepPause    = 300 * time.Millisecond
	serveLadderFactor = 1.3 // each ladder rung offers this much more than the last
	serveLadderTop    = 8 * serveRefRate
	serveSetupLaunch  = 5
	serveReadEvery    = 10 // every tenth request reads the report
	serveScrapeEvery  = time.Second
	serveBodyPool     = 4096
	serveDrainTimeout = 30 * time.Second
)

// daemon is one offloadd process.
type daemon struct {
	cmd    *exec.Cmd
	stderr *syncBuffer
	addr   string
	ready  time.Duration // exec to the first /readyz 200
}

// syncBuffer is a bytes.Buffer the daemon's stderr can be written to while
// the benchmark reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon execs offloadd on a free loopback port and waits until
// /readyz answers 200. The daemon runs on the wall clock at x1, as in
// production.
func startDaemon(bin string, seed uint64) (*daemon, error) {
	d := &daemon{stderr: &syncBuffer{}}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-seed", strconv.FormatUint(seed, 10),
		"-drain-timeout", serveDrainTimeout.String())
	d.cmd.Stderr = d.stderr
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := t0.Add(20 * time.Second)
	for d.addr == "" {
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("offloadd did not report its address: %q", d.stderr.String())
		}
		if _, rest, ok := strings.Cut(d.stderr.String(), "serving on "); ok {
			d.addr, _, _ = strings.Cut(rest, " ")
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	c := &http.Client{Timeout: time.Second}
	for {
		resp, err := c.Get("http://" + d.addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Since(t0)
				c.CloseIdleConnections()
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("offloadd never became ready: %v", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// peakRSSMB reads the daemon's peak resident set size so far.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop sends SIGTERM and waits for the daemon to drain and exit. It fails
// unless the daemon exited 0 with nothing left in flight.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(serveDrainTimeout + 10*time.Second):
		d.cmd.Process.Kill()
		<-done
		return errors.New("offloadd did not exit after SIGTERM")
	}
	if err != nil {
		return fmt.Errorf("offloadd exit: %v: %s", err, d.stderr.String())
	}
	if !strings.Contains(d.stderr.String(), "drained, 0 tasks in flight") {
		return fmt.Errorf("offloadd did not drain to 0 in flight: %s", d.stderr.String())
	}
	return nil
}

// opKind is what one request in the open loop does.
type opKind int

const (
	opSubmit opKind = iota // POST /v1/tasks
	opReport               // GET /v1/report
	opScrape               // GET /metrics
)

// conn is one keep-alive HTTP/1.1 connection to the daemon, written by
// hand so the client costs as little CPU as possible beside the daemon.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{addr: addr, c: c, br: bufio.NewReader(c)}, nil
}

// do sends one prepared request and reads its response, returning the
// status and, when keep is set, the body. A transport error closes the
// connection; the next call redials.
func (c *conn) do(req []byte, keep bool) (int, []byte, error) {
	if c.c == nil {
		nc, err := dial(c.addr)
		if err != nil {
			return 0, nil, err
		}
		*c = *nc
	}
	fail := func(err error) (int, []byte, error) {
		c.c.Close()
		c.c = nil
		return 0, nil, err
	}
	if _, err := c.c.Write(req); err != nil {
		return fail(err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return fail(err)
	}
	var body []byte
	if keep {
		body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	if err != nil {
		return fail(err)
	}
	return resp.StatusCode, body, nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
	}
}

// requests holds the prepared request bytes of one seeded traffic mix.
type requests struct {
	submits [][]byte
	report  []byte
	scrape  []byte
}

// taskSpec is one seeded task submission, in offloadd's JSON shape.
type taskSpec struct {
	App         string  `json:"app"`
	Cycles      float64 `json:"cycles"`
	InputBytes  int64   `json:"input_bytes"`
	OutputBytes int64   `json:"output_bytes"`
	DeadlineS   float64 `json:"deadline_s"`
}

// seededSpecs draws n task specs from the seed: the application, compute
// and data sizes, and the deadline vary per task. The daemon models one
// device whose links serialise transfers, so at x1 it settles a few
// hundred offloaded tasks per wall second at most. These tasks are light
// enough that the deadline-aware policy runs them on the device, the
// simulated backlog stays bounded at thousands of submissions per second,
// and the daemon drains on SIGTERM.
func seededSpecs(seed uint64, n int) []taskSpec {
	r := rand.New(rand.NewPCG(seed, 0x6f66666c6f6164))
	apps := []string{"photo-pipeline", "video-transcode", "ml-batch", "report-gen", "sci-batch"}
	out := make([]taskSpec, n)
	for i := range out {
		out[i] = taskSpec{
			App:         apps[r.IntN(len(apps))],
			Cycles:      1e4 + 99e4*r.Float64(),
			InputBytes:  256 + r.Int64N(1792),
			OutputBytes: 128 + r.Int64N(896),
			DeadlineS:   0.2 + 1.8*r.Float64(),
		}
	}
	return out
}

// newRequests prepares the request bytes of the seeded traffic mix.
func newRequests(seed uint64) *requests {
	q := &requests{
		report: []byte("GET /v1/report HTTP/1.1\r\nHost: offloadd\r\n\r\n"),
		scrape: []byte("GET /metrics HTTP/1.1\r\nHost: offloadd\r\n\r\n"),
	}
	for _, spec := range seededSpecs(seed, serveBodyPool) {
		body, _ := json.Marshal(spec) // a struct of strings and numbers always marshals
		req := fmt.Sprintf("POST /v1/tasks HTTP/1.1\r\nHost: offloadd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
		q.submits = append(q.submits, []byte(req))
	}
	return q
}

// op is one scheduled request of an open-loop phase.
type op struct {
	kind opKind
	due  time.Duration // offset from the phase start
	req  []byte
}

// rec is what happened to one op.
type rec struct {
	kind         opKind
	due, done    time.Duration
	status       int
	err          error
	generatorLag time.Duration
}

// schedule lays out a constant-rate phase: n requests evenly spaced at
// rate, every serveReadEvery-th one a report read, plus a scrape every
// serveScrapeEvery. next hands out the submission bodies in turn.
func schedule(q *requests, next *int, rate float64, d time.Duration) []op {
	n := int(rate * d.Seconds())
	gap := time.Duration(float64(time.Second) / rate)
	ops := make([]op, 0, n+int(d/serveScrapeEvery)+1)
	scrapeAt := time.Duration(0)
	for i := 0; i < n; i++ {
		due := time.Duration(i) * gap
		for scrapeAt <= due {
			ops = append(ops, op{kind: opScrape, due: scrapeAt, req: q.scrape})
			scrapeAt += serveScrapeEvery
		}
		if i%serveReadEvery == serveReadEvery-1 {
			ops = append(ops, op{kind: opReport, due: due, req: q.report})
			continue
		}
		ops = append(ops, op{kind: opSubmit, due: due, req: q.submits[*next%len(q.submits)]})
		*next++
	}
	return ops
}

// runPhase drives one open-loop phase over the connections: a single
// generator releases each op at its due time into a queue the connections
// drain, so a slow response delays the requests behind it and the delay
// shows in their due-time latency. Spans, when recorded, cover each
// request under parent.
func runPhase(conns []*conn, ops []op, sp *spanRecorder, parent uint64) []rec {
	queue := make(chan int, len(ops)) // sized to the number of sends
	recs := make([]rec, len(ops))
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for i := range queue {
				o := ops[i]
				id := sp.begin("http."+kindName(o.kind), parent)
				status, _, err := c.do(o.req, false)
				sp.end(id)
				recs[i].kind, recs[i].due, recs[i].status, recs[i].err = o.kind, o.due, status, err
				recs[i].done = time.Since(t0)
			}
		}(c)
	}
	for i, o := range ops {
		// Sleep until just short of the due time, then spin until it
		// arrives. A plain sleep oversleeps by the wake-up latency of an
		// idle CPU (long on a virtual machine), releasing requests late
		// and in bursts the few connections then queue; the spin also
		// keeps a CPU awake for the responses. Any lateness left counts
		// in the request's due-time latency and in the generator's
		// lateness.
		if wait := o.due - time.Since(t0); wait > 2*serveSpinWindow {
			time.Sleep(wait - serveSpinWindow)
		}
		for time.Since(t0) < o.due {
		}
		recs[i].generatorLag = time.Since(t0) - o.due
		queue <- i
	}
	close(queue)
	wg.Wait()
	return recs
}

func kindName(k opKind) string {
	switch k {
	case opSubmit:
		return "submit"
	case opReport:
		return "report"
	}
	return "scrape"
}

// phaseStats summarises a phase.
type phaseStats struct {
	submitMS, reportMS, scrapeMS []float64 // due-time latencies of 2xx responses
	accepted                     int       // 202 responses to submissions
	refused                      int       // non-2xx responses and transport errors
	refusals                     []string
	offered, achieved            float64 // requests per second, scrapes excluded
	maxLagMS                     float64
}

func summarisePhase(recs []rec, rate float64) phaseStats {
	s := phaseStats{offered: rate}
	var first, last time.Duration
	ok := 0
	for _, r := range recs {
		lat := ms(r.done - r.due) // due-time latency: a stall delays everything queued behind it
		s.maxLagMS = max(s.maxLagMS, ms(r.generatorLag))
		if r.err != nil || r.status < 200 || r.status > 299 {
			s.refused++
			if len(s.refusals) < 5 {
				s.refusals = append(s.refusals, fmt.Sprintf("%s status %d err %v", kindName(r.kind), r.status, r.err))
			}
			continue
		}
		switch r.kind {
		case opSubmit:
			s.submitMS = append(s.submitMS, lat)
			s.accepted++
		case opReport:
			s.reportMS = append(s.reportMS, lat)
		case opScrape:
			s.scrapeMS = append(s.scrapeMS, lat)
			continue
		}
		if ok == 0 || r.due < first {
			first = r.due
		}
		last = max(last, r.done)
		ok++
	}
	if span := (last - first).Seconds(); span > 0 {
		s.achieved = float64(ok) / span
	}
	return s
}

// step turns a phase summary into a rate-ladder step.
func (s phaseStats) step() rateStep {
	p90 := quantile(s.submitMS, 0.9)
	if len(s.submitMS) == 0 {
		p90 = 1e9
	}
	return rateStep{Offered: s.offered, Achieved: s.achieved, P90MS: p90, Refused: s.refused}
}

// checkStatuses fails when any response was not 2xx.
func checkStatuses(s phaseStats) error {
	if s.refused > 0 {
		return fmt.Errorf("serve: %d requests not answered 2xx, e.g. %s", s.refused, strings.Join(s.refusals, "; "))
	}
	return nil
}

// promValue reads an unlabelled sample's value from Prometheus text.
func promValue(text, name string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f, err == nil
		}
	}
	return 0, false
}

// checkAccepted compares the daemon's serve_accepted counter with the
// number of submissions the driver saw accepted.
func checkAccepted(metricsText string, accepted int) error {
	v, ok := promValue(metricsText, "serve_accepted")
	if !ok {
		return errors.New("serve: /metrics has no serve_accepted sample")
	}
	if int(v) != accepted {
		return fmt.Errorf("serve: daemon accepted %v tasks, driver saw %d accepted", v, accepted)
	}
	return nil
}

// serveSession is one daemon lifetime under the open-loop driver.
type serveSession struct {
	ref       phaseStats
	steps     []rateStep
	maxRPS    float64
	found     bool
	accepted  int
	shed      float64
	peakRSSMB float64
	maxLagMS  float64
}

// runServeSession starts the daemon, warms it, runs the reference phase
// and the rate ladder, then checks the daemon's counters and its drain.
// Failures are recorded in out. The daemon is returned for its start-up
// time, nil when it never started.
func runServeSession(e *env, q *requests, sp *spanRecorder, out *outcome) (serveSession, *daemon) {
	var ss serveSession
	d, err := startDaemon(e.offloadd, e.seed)
	out.check(err)
	if err != nil {
		return ss, nil
	}
	conns := make([]*conn, 0, e.nproc)
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()
	for range e.nproc {
		c, err := dial(d.addr)
		out.check(err)
		if err != nil {
			d.kill()
			return ss, nil
		}
		conns = append(conns, c)
	}
	next := 0
	phase := func(name string, rate float64, dur time.Duration) phaseStats {
		id := sp.begin(name, 0)
		recs := runPhase(conns, schedule(q, &next, rate, dur), sp, id)
		sp.end(id)
		st := summarisePhase(recs, rate)
		ss.accepted += st.accepted
		ss.maxLagMS = max(ss.maxLagMS, st.maxLagMS)
		out.attempted += len(recs)
		return st
	}
	// Outside the ladder every request must be answered 2xx.
	checked := func(st phaseStats) phaseStats {
		if err := checkStatuses(st); err != nil {
			out.failed += st.refused
			fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
		}
		return st
	}
	// A fresh daemon starts with a small heap and cold caches, and
	// collects garbage often until its heap has grown: warm it at the
	// reference rate first. The warm-up's responses are checked and
	// counted but not timed.
	checked(phase("phase.warmup", serveRefRate, serveWarmup))
	ss.ref = checked(phase("phase.reference", serveRefRate, serveRefPhase))
	// The daemon's peak memory under the reference load: the ladder below
	// pushes it to saturation, where the peak depends on how far the run
	// happened to climb.
	ss.peakRSSMB, err = d.peakRSSMB()
	out.check(err)
	// The reference phase is the ladder's first rung. A refusal in the
	// ladder is a miss for that rate, not a failure of the run.
	ss.steps = append([]rateStep{ss.ref.step()}, climbRates(serveRefRate*serveLadderFactor,
		serveLadderFactor, serveLadderTop, func(rate float64) rateStep {
			time.Sleep(serveStepPause) // let the previous step's tasks settle
			return phase("phase.step", rate, serveStepPhase).step()
		})...)
	ss.maxRPS, ss.found = maxRPS(ss.steps)
	// The daemon's own count of accepted submissions must match the
	// driver's; read it over the same connections once all are answered.
	_, body, err := conns[0].do(q.scrape, true)
	out.check(err)
	out.check(checkAccepted(string(body), ss.accepted))
	ss.shed, _ = promValue(string(body), "serve_shed")
	var stopErr error
	sp.do("drain", 0, func(uint64) { stopErr = d.stop() })
	out.check(stopErr)
	return ss, d
}

// serveLayer measures the daemon as an operator sees it: exec to the
// first /readyz 200 over several launches, then one daemon under the
// open-loop driver — warm-up, the reference phase, and the rate ladder —
// with its counters and drain checked. It returns the offloadd.* and
// driver.* per-layer metrics.
func serveLayer(e *env, sp *spanRecorder, out *outcome) map[string]float64 {
	q := newRequests(e.seed)
	var setups []float64
	for range serveSetupLaunch - 1 {
		id := sp.begin("setup", 0)
		d, err := startDaemon(e.offloadd, e.seed)
		sp.end(id)
		out.check(err)
		if err != nil {
			continue
		}
		setups = append(setups, d.ready.Seconds())
		out.check(d.stop())
	}
	ss, d := runServeSession(e, q, sp, out)
	if d != nil {
		setups = append(setups, d.ready.Seconds())
	}
	if !ss.found {
		out.fail(errors.New("serve: no rate met the limit, not even the reference rate"))
	}
	for _, st := range ss.steps {
		fmt.Fprintf(os.Stderr, "perfbench: serve step offered %.0f/s achieved %.0f/s p90 %.2f ms refused %d pass %v\n",
			st.Offered, st.Achieved, st.P90MS, st.Refused, st.passes())
	}
	return map[string]float64{
		"offloadd.setup_s":       median(setups),
		"offloadd.p50_ms":        median(ss.ref.submitMS),
		"offloadd.p90_ms":        quantile(ss.ref.submitMS, 0.9),
		"offloadd.read_p50_ms":   median(ss.ref.reportMS),
		"offloadd.scrape_p50_ms": median(ss.ref.scrapeMS),
		"offloadd.max_rps":       ss.maxRPS,
		"offloadd.peak_rss_mb":   ss.peakRSSMB,
		"offloadd.accepted":      float64(ss.accepted),
		"offloadd.shed":          ss.shed,
		"driver.gen_late_ms":     ss.maxLagMS,
	}
}
