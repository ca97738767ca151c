package main

import (
	"fmt"
	"net"
	"sort"
	"time"

	"ofmtl/internal/core"
	"ofmtl/internal/ofproto"
	"ofmtl/internal/openflow"
)

// windows holds one timed phase: the rate of each window in operations
// per second. A shared box only ever adds time, so the best window is
// the one closest to what the program can do; the median tells how noisy
// the run was.
type windows []float64

func (ws windows) best() float64 {
	b := 0.0
	for _, r := range ws {
		b = max(b, r)
	}
	return b
}

// confirmed reports whether the second-best window is within 2 % of the
// best: the run has seen the quiet machine twice, so the best is not one
// lucky or one lonely window among loud ones.
func (ws windows) confirmed() bool {
	if len(ws) < 2 {
		return false
	}
	s := append(windows(nil), ws...)
	sort.Float64s(s)
	return s[len(s)-2] >= 0.98*s[len(s)-1]
}

// spreadPct is how far the median window fell below the best, in
// percent of the best.
func (ws windows) spreadPct() float64 { return 100 * (ws.best() - median(ws)) / ws.best() }

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// timed runs n windows of nominal length d. step does one unit of work
// and returns how many operations it was; a window ends at the first
// step boundary past d and is scored ops / actual elapsed.
func timed(n int, d time.Duration, step func() (int, error)) (windows, error) {
	ws := make(windows, 0, n)
	for range n {
		ops := 0
		start := time.Now()
		var elapsed time.Duration
		for elapsed < d {
			k, err := step()
			if err != nil {
				return nil, err
			}
			ops += k
			elapsed = time.Since(start)
		}
		ws = append(ws, float64(ops)/elapsed.Seconds())
	}
	return ws, nil
}

// tally counts what the run asked of the switch and what came back
// wrong. A packet whose deciding rule is deleted at that moment has no
// fixed right answer and is counted unchecked, not failed.
type tally struct {
	packets, packetsFailed, packetsUnchecked int64
	cmds, cmdsFailed                         int64
}

func (t *tally) attempted() int64 { return t.packets + t.cmds }
func (t *tally) failed() int64    { return t.packetsFailed + t.cmdsFailed }

func (t *tally) print() {
	fmt.Printf("ops: packets attempted=%d failed=%d unchecked=%d; flow-mod commands attempted=%d failed=%d\n",
		t.packets, t.packetsFailed, t.packetsUnchecked, t.cmds, t.cmdsFailed)
}

// switchd is the program under test as its users reach it: the pipeline
// behind an ofproto.Server on loopback TCP, and one controller
// connection. Requests are a closed loop on one goroutine, so of the
// client and the server's handler only one is ever runnable.
type switchd struct {
	srv    *ofproto.Server
	cli    *ofproto.Client
	addr   string
	served chan error
	closed bool
}

func serve(p *core.Pipeline) (*switchd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &switchd{srv: ofproto.NewServer(p, nil), addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.srv.Serve(ln) }()
	if s.cli, err = ofproto.Dial(s.addr); err != nil {
		_ = s.close()
		return nil, err
	}
	return s, nil
}

// close disconnects the client, stops the server and waits for its
// goroutines. Later calls do nothing.
func (s *switchd) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.cli != nil {
		_ = s.cli.Close()
	}
	err := s.srv.Close()
	if serr := <-s.served; err == nil {
		err = serr
	}
	return err
}

// driver walks a world's trace in packet batches and issues its churn,
// in-process or through a client connection.
type driver struct {
	w       *world
	cur     int // next trace index
	batches int // packet batches since the last flow-mod batch
	// quiet keeps the workload's churn out of the packet phases, for the
	// per-layer numbers that time one entry point alone.
	quiet bool
	t     tally
}

// checkPacket scores packet i coming back as (flags, outs).
func (d *driver) checkPacket(i int, flags uint8, outs []uint32) {
	if d.w.winner != nil {
		if k := d.w.winner[i]; k >= 0 && d.w.churn.dead[k] {
			d.t.packetsUnchecked++
			return
		}
	}
	if !d.w.ok(i, flags, outs) {
		d.t.packetsFailed++
	}
}

// advance moves past one packet batch and reports whether the workload
// wants a flow-mod batch now.
func (d *driver) advance() (churnNow bool) {
	d.t.packets += packetBatch
	d.cur = (d.cur + packetBatch) % len(d.w.trace)
	if d.quiet || d.w.w.churnEvery == 0 {
		return false
	}
	d.batches++
	if d.batches < d.w.w.churnEvery {
		return false
	}
	d.batches = 0
	return true
}

// executeStep runs one packet batch through Pipeline.Execute, one header
// at a time, as a library embedder would.
func (d *driver) executeStep() (int, error) {
	p := d.w.p
	var h openflow.Header
	for i := d.cur; i < d.cur+packetBatch; i++ {
		h = d.w.trace[i] // Execute may rewrite the header it is given
		res := p.Execute(&h)
		d.checkPacket(i, flagsOf(&res), res.Outputs)
	}
	if d.advance() {
		if _, err := d.commitStep(d.w.churn.batch()); err != nil {
			return 0, err
		}
	}
	return packetBatch, nil
}

// commitStep applies one flow-mod batch in-process.
func (d *driver) commitStep(fms []ofproto.FlowMod) (int, error) {
	res, err := commit(d.w.p, fms)
	if err != nil {
		return 0, fmt.Errorf("commit: %w", err)
	}
	d.scoreFlowMods(len(fms), res.Commands, res.Added, res.Deleted)
	return len(fms), nil
}

func (d *driver) scoreFlowMods(sent, commands, added, deleted int) {
	d.t.cmds += int64(sent)
	if !d.w.churn.applied(commands, added, deleted) {
		d.t.cmdsFailed += int64(sent)
	}
}

// wireStep sends one packet batch through the controller connection and
// checks every reply.
func (d *driver) wireStep(cli *ofproto.Client) (int, error) {
	replies, err := cli.SendPackets(d.w.ptrs[d.cur : d.cur+packetBatch])
	if err != nil {
		return 0, fmt.Errorf("SendPackets: %w", err)
	}
	if len(replies) != packetBatch {
		return 0, fmt.Errorf("SendPackets: %d replies to %d packets", len(replies), packetBatch)
	}
	for j := range replies {
		d.checkPacket(d.cur+j, replies[j].Flags, replies[j].Outputs)
	}
	if d.advance() {
		if _, err := d.wireFlowModStep(cli, d.w.churn.batch()); err != nil {
			return 0, err
		}
	}
	return packetBatch, nil
}

// wireFlowModStep sends one flow-mod batch through the connection.
func (d *driver) wireFlowModStep(cli *ofproto.Client, fms []ofproto.FlowMod) (int, error) {
	r, err := cli.SendFlowMods(fms)
	if err != nil {
		return 0, fmt.Errorf("SendFlowMods: %w", err)
	}
	d.scoreFlowMods(len(fms), int(r.Commands), int(r.Added), int(r.Deleted))
	return len(fms), nil
}

// restore re-adds whatever the churn left deleted, so each phase starts
// from the table setup built.
func (d *driver) restore() error {
	if fms := d.w.churn.restore(); fms != nil {
		if _, err := d.commitStep(fms); err != nil {
			return err
		}
	}
	return nil
}

// recheck runs one pass of the trace (at most n packets) through Execute
// after the churn, and compares the rule count with setup's: the
// flow-mod phases must leave the switch answering as before.
func (d *driver) recheck(n int) error {
	if err := d.restore(); err != nil {
		return err
	}
	if got := d.w.p.Rules(); got != d.w.rules {
		return fmt.Errorf("%d rules installed after the churn, %d before", got, d.w.rules)
	}
	d.cur = 0
	for range min(n, len(d.w.trace)) / packetBatch {
		if _, err := d.executeStep(); err != nil {
			return err
		}
	}
	return d.restore()
}
