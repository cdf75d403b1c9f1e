package device

import (
	"strings"
	"testing"
	"time"

	"rattrap/internal/netsim"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// fakeGateway implements offload.Gateway with scripted behavior.
type fakeGateway struct {
	e         *sim.Engine
	prepDelay time.Duration
	execDelay time.Duration
	needCode  bool
	reg       *workload.Registry

	prepared int
	pushes   []offload.CodePush
	released int
}

func (g *fakeGateway) Prepare(p *sim.Proc, req offload.ExecRequest) (offload.Session, error) {
	p.Sleep(g.prepDelay)
	g.prepared++
	return &fakeSession{g: g, req: req}, nil
}

type fakeSession struct {
	g   *fakeGateway
	req offload.ExecRequest
}

func (s *fakeSession) NeedCode() bool { return s.g.needCode }

func (s *fakeSession) PushCode(p *sim.Proc, push offload.CodePush) error {
	s.g.pushes = append(s.g.pushes, push)
	s.g.needCode = false
	return nil
}

func (s *fakeSession) Execute(p *sim.Proc) (offload.Result, error) {
	p.Sleep(s.g.execDelay)
	m, err := s.g.reg.Execute(s.req.Task())
	if err != nil {
		return offload.Result{Err: err.Error()}, nil
	}
	return offload.Result{Output: m.Output, ResultBytes: m.ResultBytes}, nil
}

func (s *fakeSession) Release() { s.g.released++ }

func newFake(e *sim.Engine) *fakeGateway {
	return &fakeGateway{
		e: e, prepDelay: 500 * time.Millisecond, execDelay: 200 * time.Millisecond,
		needCode: true, reg: workload.NewRegistry(),
	}
}

func TestOffloadPhases(t *testing.T) {
	e := sim.NewEngine(1)
	d, err := New(e, "phone-1", netsim.LANWiFi())
	if err != nil {
		t.Fatal(err)
	}
	gw := newFake(e)
	app, _ := workload.ByName(workload.NameLinpack)
	var ph offload.Phases
	var res offload.Result
	e.Spawn("t", func(p *sim.Proc) {
		task := d.NewTask(app)
		ph, res, err = d.Offload(p, task, app.CodeSize(), gw)
	})
	e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Output, "residual=") {
		t.Fatalf("output = %q", res.Output)
	}
	if ph.RuntimePreparation < 500*time.Millisecond {
		t.Errorf("prep = %v, want ≥ gateway's 500ms", ph.RuntimePreparation)
	}
	if ph.ComputationExecution < 200*time.Millisecond {
		t.Errorf("exec = %v", ph.ComputationExecution)
	}
	if ph.NetworkConnection <= 0 || ph.DataTransfer <= 0 {
		t.Errorf("phases missing: %+v", ph)
	}
	if gw.released != 1 {
		t.Errorf("released = %d, want 1", gw.released)
	}
}

func TestCodePushOnlyWhenAsked(t *testing.T) {
	e := sim.NewEngine(1)
	d, _ := New(e, "phone-1", netsim.LANWiFi())
	gw := newFake(e)
	app, _ := workload.ByName(workload.NameChess)
	e.Spawn("t", func(p *sim.Proc) {
		d.Offload(p, d.NewTask(app), app.CodeSize(), gw) // needCode -> push
		d.Offload(p, d.NewTask(app), app.CodeSize(), gw) // cached -> no push
	})
	e.Run()
	if len(gw.pushes) != 1 {
		t.Fatalf("pushes = %d, want 1", len(gw.pushes))
	}
	if gw.pushes[0].Size != app.CodeSize() {
		t.Fatalf("pushed size = %d", gw.pushes[0].Size)
	}
	tr := d.Traffic()
	if tr.CodeUp != app.CodeSize() {
		t.Fatalf("code traffic = %d, want one copy", tr.CodeUp)
	}
	if tr.ControlUp == 0 || tr.FileParamUp == 0 || tr.Down == 0 {
		t.Fatalf("traffic incomplete: %+v", tr)
	}
}

func TestEnergyAccountedPerRequest(t *testing.T) {
	e := sim.NewEngine(1)
	d, _ := New(e, "phone-1", netsim.LANWiFi())
	gw := newFake(e)
	app, _ := workload.ByName(workload.NameChess)
	e.Spawn("t", func(p *sim.Proc) {
		d.Offload(p, d.NewTask(app), app.CodeSize(), gw)
	})
	e.Run()
	if d.Meter.Joules <= 0 {
		t.Fatal("no energy accounted")
	}
}

func TestExecuteLocalChargesActiveCPU(t *testing.T) {
	e := sim.NewEngine(1)
	d, _ := New(e, "phone-1", netsim.LANWiFi())
	app, _ := workload.ByName(workload.NameLinpack)
	var dur time.Duration
	e.Spawn("t", func(p *sim.Proc) {
		var err error
		dur, _, err = d.ExecuteLocal(p, d.NewTask(app))
		if err != nil {
			t.Error(err)
		}
	})
	e.Run()
	if dur <= 0 {
		t.Fatal("local execution took no time")
	}
	want := 0.9 * dur.Seconds() // CPUActiveW
	if d.Meter.Joules < want*0.99 || d.Meter.Joules > want*1.01 {
		t.Fatalf("energy = %v J, want ≈%v", d.Meter.Joules, want)
	}
}

func TestDecisionPrefersLocalOnTerribleNetworks(t *testing.T) {
	e := sim.NewEngine(1)
	d, _ := New(e, "phone-1", netsim.ThreeG())
	gw := newFake(e)
	// VirusScan moves megabytes: on 3G's 0.38 Mbps upstream the estimate
	// must keep it local.
	app, _ := workload.ByName(workload.NameVirusScan)
	var offloaded bool
	e.Spawn("t", func(p *sim.Proc) {
		var err error
		offloaded, _, _, err = d.MaybeOffload(p, d.NewTask(app), app.CodeSize(), gw)
		if err != nil {
			t.Error(err)
		}
	})
	e.Run()
	if offloaded {
		t.Fatal("decision engine offloaded a 4.5MB transfer over 0.38Mbps 3G")
	}
	if gw.prepared != 0 {
		t.Fatal("gateway touched despite local decision")
	}
}

func TestDecisionOffloadsComputeOnLAN(t *testing.T) {
	e := sim.NewEngine(1)
	d, _ := New(e, "phone-1", netsim.LANWiFi())
	gw := newFake(e)
	gw.prepDelay = 0
	app, _ := workload.ByName(workload.NameLinpack)
	var offloaded bool
	e.Spawn("t", func(p *sim.Proc) {
		offloaded, _, _, _ = d.MaybeOffload(p, d.NewTask(app), app.CodeSize(), gw)
	})
	e.Run()
	if !offloaded {
		t.Fatal("decision engine kept pure compute local on LAN WiFi")
	}
}

func TestSequencePerApp(t *testing.T) {
	e := sim.NewEngine(1)
	d, _ := New(e, "phone-1", netsim.LANWiFi())
	chess, _ := workload.ByName(workload.NameChess)
	linpack, _ := workload.ByName(workload.NameLinpack)
	t1 := d.NewTask(chess)
	t2 := d.NewTask(chess)
	t3 := d.NewTask(linpack)
	if t1.Seq != 0 || t2.Seq != 1 || t3.Seq != 0 {
		t.Fatalf("sequences: %d %d %d", t1.Seq, t2.Seq, t3.Seq)
	}
}

func TestUnknownProfileRejected(t *testing.T) {
	e := sim.NewEngine(1)
	if _, err := New(e, "x", netsim.Profile{Name: "5G", UpMbps: 1, DownMbps: 1}); err == nil {
		t.Fatal("device accepted a profile with no radio model")
	}
}
