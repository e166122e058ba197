package main

// daemon-edits: warm-service traffic. jinjingd runs as a child process
// with a state directory and decision ledgers (the README's operating
// setup) and hosts two sessions on distinct medium WANs (buildWAN). An
// open-loop generator POSTs at a fixed rate below capacity; each POST
// carries its session's next single-ACL edit as "updated". Edits
// alternate between edge-layer sites (few FECs change) and
// aggregation-layer sites (most FECs change), and about one job in ten
// is a fix of the session's current edit — a write that holds the
// session lock while checks queue behind it. The serve path (body
// decode, resolve, UpdateAfter, the session lock) and the incremental
// engine do the work; derivation runs only at session PUT, in set-up.
// A run is daemonSegments segments, each on a fresh daemon, so that
// set-up time and peak RSS are medians, not single readings.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"jinjing/internal/core"
	"jinjing/internal/experiments"
	"jinjing/internal/header"
	"jinjing/internal/lai"
	"jinjing/internal/netgen"
	"jinjing/internal/serve"
	"jinjing/internal/topo"
)

const (
	daemonSessions = 2
	// daemonRate is the open-loop arrival rate over both sessions, in
	// requests per second: below the daemon's capacity on 2 CPUs, so
	// latency measures service plus queueing behind fixes, not a
	// growing backlog.
	daemonRate = 12
	// fixEvery makes every tenth edit of a session followed by a fix.
	fixEvery = 10
	// connections is the number of load-generating goroutines, each
	// with one HTTP connection.
	connections = 2
	// maxDaemonSeconds bounds the edit sequence (and the pins) to what
	// the longest allowed run sends.
	maxDaemonSeconds = 60
	// daemonSegments is how many fresh daemons a run sets up and loads
	// in turn, for medians of set-up time and peak RSS.
	daemonSegments = 5
	// daemonWarmUps is how many untimed checks each session of a fresh
	// daemon gets before its segment is timed.
	daemonWarmUps = 12
	// decodeSamples is how many pre-built bodies the traced run decodes
	// off the request path to time serve.decode and lai.resolve.
	decodeSamples = 24
)

// daemonSession is one session's inputs.
type daemonSession struct {
	name string
	w    *netgen.WAN
	// update is the base update sent at PUT: the network itself, so each
	// violation a check reports comes from the edit it carries.
	update  *topo.Network
	program string
	putBody []byte
	edits   []editSite
	// warm holds the edits of the untimed warm-up checks, drawn apart
	// from edits.
	warm []editSite
}

// daemonReq is one scheduled request.
type daemonReq struct {
	session int
	edit    int // index into the session's edits
	kind    string
	body    []byte
}

func (r daemonReq) id() string {
	return fmt.Sprintf("%s-e%d-%s", sessionName(r.session), r.edit, r.kind)
}

func sessionName(k int) string { return fmt.Sprintf("s%d", k) }

// daemonPlan lays out the request sequence for n requests. Sessions
// alternate; each session checks its edits in order, and every tenth
// edit — an edge-layer one, as edits alternate starting with edge — is
// followed by a fix of that edit. Fixing an aggregation-layer deny costs
// anywhere from 4 to 330 ms of engine time, so fixes of those would
// make the tail report how many expensive ones a run drew; fixes of
// edge-layer edits still hold the session lock while checks queue.
func daemonPlan(n int) []daemonReq {
	var perSession [daemonSessions][]daemonReq
	for s := range perSession {
		for e := 0; len(perSession[s]) < n; e++ {
			perSession[s] = append(perSession[s], daemonReq{session: s, edit: e, kind: "check"})
			if e%fixEvery == fixEvery-2 {
				perSession[s] = append(perSession[s], daemonReq{session: s, edit: e, kind: "fix"})
			}
		}
	}
	out := make([]daemonReq, n)
	for i := range out {
		out[i] = perSession[i%daemonSessions][i/daemonSessions]
	}
	return out
}

func daemonInputs(seed int64) ([]*daemonSession, error) {
	plan := daemonPlan(daemonRate * maxDaemonSeconds)
	edits := make([]int, daemonSessions)
	for _, r := range plan {
		if r.edit+1 > edits[r.session] {
			edits[r.session] = r.edit + 1
		}
	}
	var out []*daemonSession
	for k := 0; k < daemonSessions; k++ {
		w := buildWAN(k)
		s := &daemonSession{
			name:    sessionName(k),
			w:       w,
			update:  w.Net.Clone(),
			program: wholeScopeProgram(w, "check"),
		}
		rng := rand.New(rand.NewSource(subSeed(seed, 7, k)))
		s.edits = editSites(w, edits[k], rng.Intn)
		rng = rand.New(rand.NewSource(subSeed(seed, 8, k)))
		s.warm = editSites(w, daemonWarmUps, rng.Intn)
		topoJSON, err := json.Marshal(w.Net)
		if err != nil {
			return nil, err
		}
		updJSON, err := json.Marshal(s.update)
		if err != nil {
			return nil, err
		}
		all, w2 := true, workers
		s.putBody, err = json.Marshal(serve.SessionRequest{
			Topology: topoJSON, Program: s.program, Updated: updJSON,
			Defaults: &serve.JobOverrides{Workers: &w2, AllViolations: &all},
		})
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// editBody marshals the job body carrying the session's base update
// with the given edit.
func (s *daemonSession) editBody(site editSite) ([]byte, error) {
	iface, dir, a, err := site.editedACL(s.update)
	if err != nil {
		return nil, err
	}
	orig := iface.ACL(dir)
	iface.SetACL(dir, a)
	upd, err := json.Marshal(s.update)
	iface.SetACL(dir, orig)
	if err != nil {
		return nil, err
	}
	return json.Marshal(serve.JobRequest{Updated: upd})
}

// editIndex returns the ACL index of the session's base update with
// the given edit, given the index of the base update.
func (s *daemonSession) editIndex(update aclIndex, site editSite) (aclIndex, error) {
	iface, dir, a, err := site.editedACL(s.update)
	if err != nil {
		return nil, err
	}
	return update.with(iface.ID(), dir, a), nil
}

// daemonProc is a running jinjingd child.
type daemonProc struct {
	cmd  *exec.Cmd
	addr string
	dir  string
	logs sync.WaitGroup
}

// startDaemon launches jinjingd with a state directory and decision
// ledgers under dir and waits for its listen address.
func startDaemon(bin, dir string) (*daemonProc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0",
		"-state-dir", filepath.Join(dir, "state"), "-decision-logs", filepath.Join(dir, "ledgers"))
	// Should the benchmark die first, the daemon goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemonProc{cmd: cmd, dir: dir}
	addrc := make(chan string, 1)
	d.logs.Add(1)
	go func() {
		defer d.logs.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "jinjingd: serving on "); ok {
				addrc <- a
			}
		}
		close(addrc)
	}()
	select {
	case a, ok := <-addrc:
		if !ok {
			d.stop()
			return nil, fmt.Errorf("jinjingd exited before listening")
		}
		d.addr = a
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("jinjingd did not report a listen address")
	}
	return d, nil
}

// stop drains the daemon with SIGTERM (killing it if the drain hangs),
// waits for it to exit, and removes its state.
func (d *daemonProc) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
	d.logs.Wait()
	os.RemoveAll(d.dir)
}

func (d *daemonProc) url(path string) string { return "http://" + d.addr + path }

// putSessions creates every session; it is the derivation the daemon
// does once per session.
func putSessions(client *http.Client, d *daemonProc, sessions []*daemonSession) error {
	for _, s := range sessions {
		req, err := http.NewRequest(http.MethodPut, d.url("/v1/sessions/"+s.name), bytes.NewReader(s.putBody))
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			return fmt.Errorf("PUT %s: %s: %s", s.name, resp.Status, body)
		}
	}
	return nil
}

// sample is one request's timeline and response.
type sample struct {
	due, sent, done time.Duration // since the schedule's start
	status          int
	body            []byte
	err             error
}

// openLoop sends reqs at daemonRate from the connections' goroutines, every request at its due time or as soon after as
// a goroutine is free. Latency is taken from the due time, so a stall
// is charged to every request it delays.
func openLoop(d *daemonProc, reqs []daemonReq) []sample {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	start := time.Now()
	interval := time.Second / daemonRate
	var wg sync.WaitGroup
	for g := 0; g < connections; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
			defer client.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				due := time.Duration(i) * interval
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				s := sample{due: due, sent: time.Since(start)}
				resp, err := client.Post(d.url("/v1/sessions/"+sessionName(r.session)+"/"+r.kind), "application/json", bytes.NewReader(r.body))
				if err == nil {
					s.body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					s.status = resp.StatusCode
				}
				s.done = time.Since(start)
				s.err = err
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// warmUp sends each session's warm-up edits as checks, untimed and in
// turn, so a fresh daemon's first timed requests do not pay for its
// heap growth, cold verdict cache and first use of the request path.
// Each response is judged by the reference semantics like a timed one.
func warmUp(d *daemonProc, sessions []*daemonSession) error {
	client := &http.Client{}
	defer client.CloseIdleConnections()
	for i := 0; i < daemonWarmUps; i++ {
		for _, s := range sessions {
			if err := warmCheck(client, d, s, s.warm[i]); err != nil {
				return fmt.Errorf("warm-up check %d of %s: %v", i, s.name, err)
			}
		}
	}
	return nil
}

func warmCheck(client *http.Client, d *daemonProc, s *daemonSession, site editSite) error {
	body, err := s.editBody(site)
	if err != nil {
		return err
	}
	resp, err := client.Post(d.url("/v1/sessions/"+s.name+"/check"), "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %.200s", resp.Status, out)
	}
	var res serve.CheckResponse
	if err := json.Unmarshal(out, &res); err != nil {
		return err
	}
	after, err := s.editIndex(indexACLs(s.update), site)
	if err != nil {
		return err
	}
	ws, err := daemonWitnesses(res)
	if err != nil {
		return err
	}
	return checkVerdict(res.Complete, len(res.Unknown), res.Consistent, ws, indexACLs(s.w.Net), after)
}

func runDaemon(cfg config) (*report, error) {
	if cfg.jinjingd == "" {
		return nil, fmt.Errorf("-jinjingd is required")
	}
	if cfg.seconds > maxDaemonSeconds*time.Second {
		return nil, fmt.Errorf("at most %d seconds", maxDaemonSeconds)
	}
	rep := newReport()
	// The run is daemonSegments segments, each on a fresh daemon: set-up
	// (input generation, daemon start, the session PUTs), then the next
	// share of the request sequence at daemonRate, then the daemon's
	// VmHWM. Set-up time and peak RSS are medians over the segments;
	// latencies pool every segment's requests.
	n := int(cfg.seconds/time.Second) * daemonRate
	reqs := daemonPlan(n)
	samples := make([]sample, 0, n)
	segment := make([]int, 0, n)
	var sessions []*daemonSession
	var setups, rsss []float64
	for seg := 0; seg < daemonSegments; seg++ {
		lo, hi := seg*n/daemonSegments, (seg+1)*n/daemonSegments
		runtime.GC() // as medianSetup does: no earlier garbage in the set-up time
		t0 := time.Now()
		var err error
		if sessions, err = daemonInputs(cfg.seed); err != nil {
			return nil, err
		}
		d, err := startDaemon(cfg.jinjingd, filepath.Join(cfg.workdir, fmt.Sprintf("daemon-%d-%d", os.Getpid(), seg)))
		if err != nil {
			return nil, err
		}
		client := &http.Client{}
		err = putSessions(client, d, sessions)
		// The timed phase uses exactly its own connections.
		client.CloseIdleConnections()
		if err != nil {
			d.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		// Every request body is built before the timed phase.
		for i := lo; i < hi; i++ {
			sess := sessions[reqs[i].session]
			if reqs[i].body, err = sess.editBody(sess.edits[reqs[i].edit]); err != nil {
				d.stop()
				return nil, err
			}
		}
		if err = warmUp(d, sessions); err != nil {
			d.stop()
			return nil, err
		}
		// Collect this process's set-up garbage now, not while it times.
		runtime.GC()
		samples = append(samples, openLoop(d, reqs[lo:hi])...)
		rsss = append(rsss, peakRSSMB(d.cmd.Process.Pid))
		d.stop()
		for i := lo; i < hi; i++ {
			segment = append(segment, seg)
		}
	}
	setupS, rss := median(setups), median(rsss)

	rep.params["tier"] = tier.String()
	rep.params["wan_netgen_seeds"] = []int64{experiments.Seed, experiments.Seed + 1}
	rep.params["sessions"] = daemonSessions
	rep.params["rate_per_s"] = daemonRate
	rep.params["fix_every_edits"] = fixEvery
	rep.params["workers"] = workers
	rep.params["connections"] = connections
	rep.params["segments"] = daemonSegments
	rep.params["warm_up_checks_per_session"] = daemonWarmUps

	v := validateDaemon(rep, sessions, reqs, samples, cfg.seed)
	for i, s := range samples {
		r := reqs[i]
		rep.ops = append(rep.ops, map[string]any{
			"id": r.id(), "segment": segment[i], "site": sessions[r.session].edits[r.edit].layer, "status": s.status,
			"due_ms": ms(s.due), "sent_ms": ms(s.sent), "done_ms": ms(s.done), "engine_ms": float64(v.wallNS[i]) / 1e6,
		})
	}

	p50, p90, p99 := quantile(v.checkLat, 0.5), quantile(v.checkLat, 0.9), quantile(v.checkLat, 0.99)
	rep.endToEnd["setup_s"] = metric{setupS, "s"}
	rep.endToEnd["peak_rss_mb"] = metric{rss, "MB"}
	rep.endToEnd["op_p50_ms"] = metric{p50, "ms"}
	rep.endToEnd["op_p90_ms"] = metric{p90, "ms"}
	rep.named["setup_s"] = metric{setupS, "s"}
	rep.named["peak_rss_mb"] = metric{rss, "MB"}
	rep.named["recheck_p50_ms"] = metric{p50, "ms"}
	rep.named["recheck_p90_ms"] = metric{p90, "ms"}
	rep.named["recheck_p99_ms"] = metric{p99, "ms"}
	rep.named["daemon_fix_p50_ms"] = metric{median(v.fixLat), "ms"}
	rep.named["rechecks"] = metric{float64(len(v.checkLat)), "count"}
	rep.named["fixes"] = metric{float64(len(v.fixLat)), "count"}
	rep.named["rejected"] = metric{float64(v.rejected), "count"}
	rep.named["late_max_ms"] = metric{maxOf(v.late), "ms"}
	rep.named["ops"] = metric{float64(rep.attempted), "count"}
	rep.named["failed_ops"] = metric{float64(rep.failed), "count"}

	if cfg.trace {
		layers := emptyLayers()
		t := newTracer()
		// Each request is one span on the client's clock, with the
		// engine's reported wall time as its child: the rest of the
		// request is serve overhead (transfer, body decode, resolve,
		// UpdateAfter, lock wait, response encode). Every other pair of
		// requests (one per session) is traced; spans are built from
		// timestamps every request records, so tracing costs the request
		// path nothing and the overhead reads as noise around zero.
		var tracedLat, untracedLat []float64
		for i, s := range samples {
			if reqs[i].kind != "check" || v.wallNS[i] == 0 {
				continue
			}
			if (i/daemonSessions)%2 == 0 {
				untracedLat = append(untracedLat, ms(s.done-s.due))
				continue
			}
			tracedLat = append(tracedLat, ms(s.done-s.due))
			root := len(t.spans)
			t.spans = append(t.spans, span{name: "request", start: s.sent, end: s.done, parent: -1, op: i})
			t.phases(root, i, []string{"serve.engine"}, []time.Duration{time.Duration(v.wallNS[i])})
		}
		self := selfTimes(t.spans)
		decode, resolve, err := offPathDecode(t, sessions, reqs)
		if err != nil {
			return nil, err
		}
		rep.spans = t.spans
		engine, overhead := medianSelfMS(self, "serve.engine"), medianSelfMS(self, "request")
		late := median(v.late)
		layers["serve.engine_ms"] = metric{engine, "ms"}
		layers["serve.overhead_ms"] = metric{overhead, "ms"}
		layers["serve.decode_ms"] = metric{decode, "ms"}
		layers["lai.resolve_ms"] = metric{resolve, "ms"}
		layers["serve.rejected"] = metric{float64(v.rejected), "count"}
		layers["loadgen.late_ms"] = metric{late, "ms"}
		if v.hits+v.misses > 0 {
			layers["cache.hit_ratio"] = metric{float64(v.hits) / float64(v.hits+v.misses), "ratio"}
		}
		setLayers(layers, medianCounts(v.counts))
		if len(tracedLat) > 0 && len(untracedLat) > 0 {
			layers["trace.overhead_ms"] = metric{median(tracedLat) - median(untracedLat), "ms"}
		}
		rep.layers = layers
		rep.coverage = fmt.Sprintf("recheck p50 %.3f ms from due time; medians: generator lateness %.3f + serve overhead %.3f + engine %.3f = %.3f ms",
			p50, late, overhead, engine, late+overhead+engine)
	}
	return rep, nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// daemonValidation is what validateDaemon extracts from the samples.
type daemonValidation struct {
	checkLat, fixLat, late []float64
	wallNS                 []int64
	rejected               int
	hits, misses           int64
	counts                 []map[string]float64
}

// validateDaemon judges every response by the reference semantics: a
// check's witnesses must replay against the session's base network and
// the edit it carried, a fix's returned topology must undo every
// witness of the check of the same edit, and answers must repeat
// across the run. A refused (429/503) or failed (5xx) response counts
// as a failed operation, never as a dropped one.
func validateDaemon(rep *report, sessions []*daemonSession, reqs []daemonReq, samples []sample, seed int64) *daemonValidation {
	v := &daemonValidation{wallNS: make([]int64, len(reqs))}
	bases := make([]aclIndex, len(sessions))
	updates := make([]aclIndex, len(sessions))
	for k, s := range sessions {
		bases[k] = indexACLs(s.w.Net)
		updates[k] = indexACLs(s.update)
	}
	witnesses := map[string][]witness{} // by session+edit, from checks
	type pendingFix struct {
		i   int
		res serve.FixResponse
	}
	var fixes []pendingFix
	rng := rand.New(rand.NewSource(subSeed(seed, 9, 2)))
	selfTested := false
	var seenPaths []refPath // witness paths so far, for the self-test's decoy
	for i, s := range samples {
		r := reqs[i]
		rep.attempted++
		v.late = append(v.late, ms(s.sent-s.due))
		if s.err != nil {
			rep.fail("%s: %v", r.id(), s.err)
			continue
		}
		if s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable || s.status >= 500 {
			v.rejected++
		}
		if s.status != http.StatusOK {
			rep.fail("%s: HTTP %d: %.200s", r.id(), s.status, s.body)
			continue
		}
		sess := sessions[r.session]
		after, err := sess.editIndex(updates[r.session], sess.edits[r.edit])
		if err != nil {
			rep.fail("%s: %v", r.id(), err)
			continue
		}
		key := fmt.Sprintf("%s-e%d", sessionName(r.session), r.edit)
		switch r.kind {
		case "check":
			var res serve.CheckResponse
			if err := json.Unmarshal(s.body, &res); err != nil {
				rep.fail("%s: %v", r.id(), err)
				continue
			}
			ws, err := daemonWitnesses(res)
			if err == nil {
				err = checkVerdict(res.Complete, len(res.Unknown), res.Consistent, ws, bases[r.session], after)
			}
			if err != nil {
				rep.fail("%s: %v", r.id(), err)
				continue
			}
			if !recordAnswer(rep, r.id(), fmt.Sprintf("consistent=%v violations=%d", res.Consistent, len(res.Violations))) {
				continue
			}
			for _, w := range ws {
				seenPaths = append(seenPaths, w.paths...)
			}
			if !selfTested && len(ws) > 0 && len(seenPaths) > len(ws[0].paths) {
				selfTested = true
				bad, ok := decoy(rng, bases[r.session], after, ws[0], seenPaths)
				switch {
				case !ok:
					rep.params["self_test_daemon_witness"] = "skipped: no decoy packet found"
				case checkWitness(bases[r.session], after, bad) == nil:
					rep.fail("self-test: corrupted daemon witness %v accepted", bad.pkt)
				default:
					rep.params["self_test_daemon_witness"] = "rejected"
				}
			}
			witnesses[key] = ws
			v.checkLat = append(v.checkLat, ms(s.done-s.due))
			v.wallNS[i] = res.WallNS
			v.hits += res.Stats.FECCacheHits
			v.misses += res.Stats.FECCacheMisses
			c := map[string]float64{
				"check.violations": float64(len(res.Violations)),
				"pset.decided":     float64(res.Stats.PsetDecided),
				"pset.bailouts":    float64(res.Stats.PsetBailout),
				"core.fecs":        float64(res.FECs),
			}
			if res.FECs > 0 {
				c["check.solved_ratio"] = float64(res.SolvedFECs) / float64(res.FECs)
			}
			v.counts = append(v.counts, c)
		case "fix":
			var res serve.FixResponse
			if err := json.Unmarshal(s.body, &res); err != nil {
				rep.fail("%s: %v", r.id(), err)
				continue
			}
			fixes = append(fixes, pendingFix{i, res})
			v.wallNS[i] = res.WallNS
			v.fixLat = append(v.fixLat, ms(s.done-s.due))
		}
	}
	// Fixes are judged once every check's witnesses are in: requests
	// run concurrently, so a fix may complete before the check of the
	// same edit.
	for _, f := range fixes {
		r := reqs[f.i]
		key := fmt.Sprintf("%s-e%d", sessionName(r.session), r.edit)
		ws, ok := witnesses[key]
		err := error(nil)
		switch {
		case !ok:
			err = fmt.Errorf("no validated check of the same edit to judge the fix by")
		case !f.res.Verified || f.res.Unfixable > 0:
			err = fmt.Errorf("fix: verified=%v unfixable=%d", f.res.Verified, f.res.Unfixable)
		default:
			fixed := topo.NewNetwork()
			if err = json.Unmarshal(f.res.Topology, fixed); err == nil {
				err = checkUndone(bases[r.session], indexACLs(fixed), ws)
			}
		}
		if err != nil {
			rep.fail("%s: %v", r.id(), err)
			continue
		}
		if recordAnswer(rep, r.id(), fmt.Sprintf("actions=%d", len(f.res.Actions))) {
			v.counts = append(v.counts, map[string]float64{
				"fix.actions":       float64(len(f.res.Actions)),
				"fix.neighborhoods": float64(f.res.Neighborhoods),
			})
		}
	}
	if !selfTested {
		rep.fail("self-test: no daemon witness to corrupt")
	}
	return v
}

// daemonWitnesses parses a check response's witnesses.
func daemonWitnesses(res serve.CheckResponse) ([]witness, error) {
	var out []witness
	for _, w := range res.Violations {
		pkt, err := parsePacket(w.Packet)
		if err != nil {
			return nil, err
		}
		x := witness{pkt: pkt}
		for _, c := range w.Classes {
			p, err := header.ParsePrefix(c)
			if err != nil {
				return nil, err
			}
			x.classes = append(x.classes, p)
		}
		for _, ps := range w.Paths {
			p, err := parsePath(ps)
			if err != nil {
				return nil, err
			}
			x.paths = append(x.paths, p)
		}
		out = append(out, x)
	}
	return out, nil
}

// offPathDecode times, away from the request path, the two steps the
// daemon runs on every body before the engine: decoding the updated
// topology and resolving the session program over it. It records one
// span of each per sampled body and returns their median times.
func offPathDecode(t *tracer, sessions []*daemonSession, reqs []daemonReq) (decodeMS, resolveMS float64, err error) {
	progs := make([]*lai.Program, len(sessions))
	for k, s := range sessions {
		if progs[k], err = lai.Parse(s.program); err != nil {
			return 0, 0, err
		}
	}
	var dec, res []float64
	step := len(reqs)/decodeSamples + 1
	for i := 0; i < len(reqs); i += step {
		op := -1 - i
		root := t.begin("decode-sample", -1, op)
		sp := t.begin("serve.decode", root, op)
		t0 := time.Now()
		var job serve.JobRequest
		u := topo.NewNetwork()
		if err := json.Unmarshal(reqs[i].body, &job); err != nil {
			return 0, 0, err
		}
		if err := json.Unmarshal(job.Updated, u); err != nil {
			return 0, 0, err
		}
		dec = append(dec, ms(time.Since(t0)))
		t.end(sp)
		sp = t.begin("lai.resolve", root, op)
		t0 = time.Now()
		s := sessions[reqs[i].session]
		if _, err := lai.Resolve(progs[reqs[i].session], s.w.Net, lai.ResolveOptions{Updated: u}); err != nil {
			return 0, 0, err
		}
		res = append(res, ms(time.Since(t0)))
		t.end(sp)
		t.end(root)
	}
	return median(dec), median(res), nil
}

// pinDaemon computes the answers of the longest request sequence with
// in-process warm engines doing what the daemon's sessions do: resolve
// the program over each edit, UpdateAfter, then check or fix.
func pinDaemon(cfg config) (map[string]string, error) {
	sessions, err := daemonInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	engines := make([]*core.Engine, len(sessions))
	progs := make([]*lai.Program, len(sessions))
	for k, s := range sessions {
		if progs[k], err = lai.Parse(s.program); err != nil {
			return nil, err
		}
		r, err := lai.Resolve(progs[k], s.w.Net, lai.ResolveOptions{Updated: s.update})
		if err != nil {
			return nil, err
		}
		opts := core.DefaultOptions()
		opts.Workers = workers
		opts.FindAllViolations = true
		opts.Verdicts = core.NewVerdictCache()
		engines[k] = core.FromResolved(r, opts)
	}
	out := map[string]string{}
	for _, r := range daemonPlan(daemonRate * maxDaemonSeconds) {
		s := sessions[r.session]
		iface, dir, a, err := s.edits[r.edit].editedACL(s.update)
		if err != nil {
			return nil, err
		}
		orig := iface.ACL(dir)
		iface.SetACL(dir, a)
		res, err := lai.Resolve(progs[r.session], s.w.Net, lai.ResolveOptions{Updated: s.update})
		iface.SetACL(dir, orig)
		if err != nil {
			return nil, err
		}
		e := engines[r.session]
		e.UpdateAfter(res.After)
		if r.kind == "check" {
			c := e.Check()
			out[r.id()] = fmt.Sprintf("consistent=%v violations=%d", c.Consistent, len(c.Violations))
			continue
		}
		f, err := e.Fix()
		if err != nil {
			return nil, err
		}
		out[r.id()] = fmt.Sprintf("actions=%d", len(f.Actions))
	}
	return out, nil
}
