package gpu

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
)

// -update rewrites testdata/stream_events.golden from the current output.
var update = flag.Bool("update", false, "rewrite testdata golden files")

// ft renders a virtual time exactly, so the golden pins every bit.
func ft(t sim.Time) string { return strconv.FormatFloat(float64(t), 'g', -1, 64) }

// fd renders a duration exactly.
func fd(d sim.Duration) string { return strconv.FormatFloat(float64(d), 'g', -1, 64) }

// TestStreamEventsGolden pins the device's complete completion-event
// sequence, and the instants host processes wake from their waits, for a
// scenario that exercises every stream phase: three streams contend for
// the one compute engine with a context-switch charge and the starvation
// warm-up, copies contend for two DMA engines, hosts wait through all
// three synchronization forms (Op.Wait, Stream.Sync, Device.Sync), and one
// stream is destroyed with ops still queued. Any change to which (time,
// seq) slot a stream op starts or completes in moves a line.
func TestStreamEventsGolden(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	spec := fastSpec()
	spec.ContextSwitch = 20 * sim.Microsecond
	spec.CopyLatency = 5 * sim.Microsecond
	spec.WarmupRate = 0.5
	spec.WarmupSaturation = 100 * sim.Microsecond
	d, err := NewDevice(env, spec)
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	d.Listen(listenerFunc{
		onKernel: func(ev KernelEvent) {
			log = append(log, fmt.Sprintf("kernel %s stream=%d %s enq=%s start=%s end=%s warmup=%s gap=%s ctx=%s",
				ev.Device, ev.Stream, ev.Name, ft(ev.Enqueue), ft(ev.Start), ft(ev.End),
				fd(ev.Warmup), fd(ev.IdleGap), fd(ev.CtxSwitch)))
		},
		onCopy: func(ev CopyEvent) {
			log = append(log, fmt.Sprintf("copy %s stream=%d %v bytes=%d enq=%s start=%s end=%s",
				ev.Device, ev.Stream, ev.Dir, ev.Bytes, ft(ev.Enqueue), ft(ev.Start), ft(ev.End)))
		},
	})
	streams := []*Stream{d.NewStream(), d.NewStream(), d.NewStream()}
	for i, s := range streams {
		env.Spawn("host"+strconv.Itoa(i), func(p *sim.Proc) {
			for round := 0; round < 4; round++ {
				s.EnqueueCopy(H2D, int64(1000*(i+1)))
				k := s.EnqueueKernel(Fixed("k"+strconv.Itoa(i)+"."+strconv.Itoa(round), sim.Duration(i+1)*10*sim.Microsecond))
				s.EnqueueCopy(D2H, 500)
				m := s.EnqueueMarker()
				switch (round + i) % 3 {
				case 0:
					k.Wait(p)
				case 1:
					s.Sync(p)
				case 2:
					d.Sync(p)
				}
				log = append(log, fmt.Sprintf("host%d round %d woke at %s marker-done=%v", i, round, ft(p.Now()), m.Done()))
				p.Sleep(sim.Duration(i) * 7 * sim.Microsecond)
			}
			if i == 2 {
				// Destroy with work still queued: the stream must drain it
				// before its runner ends.
				s.EnqueueKernel(Fixed("tail-a", 15*sim.Microsecond))
				s.EnqueueCopy(D2D, 4096)
				s.EnqueueKernel(Fixed("tail-b", 5*sim.Microsecond))
				s.Destroy()
			}
		})
	}
	end := env.Run()
	c := d.Counters()
	log = append(log,
		fmt.Sprintf("end %s live=%d blocked=%v", ft(end), env.Live(), env.Blocked()),
		fmt.Sprintf("counters kernels=%d h2d=%d/%d d2h=%d/%d d2d=%d/%d compute=%s copy=%s warmup=%s idle=%d ctx=%d/%s",
			c.Kernels, c.CopiesH2D, c.BytesH2D, c.CopiesD2H, c.BytesD2H, c.CopiesD2D, c.BytesD2D,
			fd(c.ComputeBusy), fd(c.CopyBusy), fd(c.WarmupTotal), c.IdleEvents, c.CtxSwitches, fd(c.CtxTotal)),
	)
	got := strings.Join(log, "\n") + "\n"

	path := filepath.Join("testdata", "stream_events.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("stream event sequence differs from %s (rerun with -update only for an intended model change):\n%s",
			path, lineDiff(string(want), got))
	}
}

// lineDiff reports the first differing line of two renderings.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, wl, gl)
		}
	}
	return "(no line differs)"
}
