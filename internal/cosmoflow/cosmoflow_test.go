package cosmoflow

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// --- Numeric mode ---

func TestTensorIndexing(t *testing.T) {
	x := NewTensor(2, 3, 4, 5)
	if x.Len() != 120 {
		t.Fatalf("Len = %d", x.Len())
	}
	x.Set(1, 2, 3, 4, 7.5)
	if got := x.At(1, 2, 3, 4); got != 7.5 {
		t.Errorf("At = %v", got)
	}
	if got := x.atPadded(0, -1, 0, 0); got != 0 {
		t.Errorf("atPadded outside = %v", got)
	}
	c := x.Clone()
	c.Data[0] = 99
	if x.Data[0] == 99 {
		t.Error("Clone aliases")
	}
	if !x.SameShape(c) {
		t.Error("SameShape false for clone")
	}
}

func TestTensorInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewTensor(0, 1, 1, 1)
}

func TestConvForwardIdentityKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv3D(1, 1, 3, rng)
	// Identity kernel: centre weight 1, rest 0, no bias.
	for i := range c.W {
		c.W[i] = 0
	}
	c.W[c.widx(0, 0, 1, 1, 1)] = 1
	c.B[0] = 0
	x := RandomVolume(1, 4, rng)
	y := c.Forward(x)
	for i := range x.Data {
		if math.Abs(y.Data[i]-x.Data[i]) > 1e-12 {
			t.Fatalf("identity conv altered element %d", i)
		}
	}
}

// numGrad estimates dLoss/dv by central differences.
func numGrad(f func() float64, v *float64) float64 {
	const h = 1e-5
	old := *v
	*v = old + h
	up := f()
	*v = old - h
	down := f()
	*v = old
	return (up - down) / (2 * h)
}

func TestConvGradientsMatchFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	conv := NewConv3D(2, 3, 3, rng)
	x := RandomVolume(2, 4, rng)
	target := RandomVolume(3, 4, rng)
	loss := func() float64 {
		l, _ := MSELoss(conv.Forward(x), target)
		return l
	}
	// Analytic gradients.
	_, g := MSELoss(conv.Forward(x), target)
	for i := range conv.dW {
		conv.dW[i] = 0
	}
	for i := range conv.dB {
		conv.dB[i] = 0
	}
	dx := conv.Backward(g)
	// Spot-check a handful of weight, bias and input gradients.
	for _, wi := range []int{0, 7, 31, len(conv.W) - 1} {
		want := numGrad(loss, &conv.W[wi])
		if math.Abs(conv.dW[wi]-want) > 1e-6*(math.Abs(want)+1) {
			t.Errorf("dW[%d] = %v, finite diff %v", wi, conv.dW[wi], want)
		}
	}
	want := numGrad(loss, &conv.B[1])
	if math.Abs(conv.dB[1]-want) > 1e-6*(math.Abs(want)+1) {
		t.Errorf("dB[1] = %v, finite diff %v", conv.dB[1], want)
	}
	for _, xi := range []int{0, 17, x.Len() - 1} {
		want := numGrad(loss, &x.Data[xi])
		if math.Abs(dx.Data[xi]-want) > 1e-6*(math.Abs(want)+1) {
			t.Errorf("dx[%d] = %v, finite diff %v", xi, dx.Data[xi], want)
		}
	}
}

func TestDenseGradientsMatchFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDense(8, 3, rng)
	x := NewTensor(8, 1, 1, 1)
	x.Fill(rng.NormFloat64)
	target := NewTensor(3, 1, 1, 1)
	target.Fill(rng.NormFloat64)
	loss := func() float64 {
		l, _ := MSELoss(d.Forward(x), target)
		return l
	}
	_, g := MSELoss(d.Forward(x), target)
	for i := range d.dW {
		d.dW[i] = 0
	}
	for i := range d.dB {
		d.dB[i] = 0
	}
	dx := d.Backward(g)
	for _, wi := range []int{0, 11, 23} {
		want := numGrad(loss, &d.W[wi])
		if math.Abs(d.dW[wi]-want) > 1e-6*(math.Abs(want)+1) {
			t.Errorf("dW[%d] = %v, finite diff %v", wi, d.dW[wi], want)
		}
	}
	for xi := 0; xi < 8; xi++ {
		want := numGrad(loss, &x.Data[xi])
		if math.Abs(dx.Data[xi]-want) > 1e-6*(math.Abs(want)+1) {
			t.Errorf("dx[%d] = %v, finite diff %v", xi, dx.Data[xi], want)
		}
	}
}

func TestReLU(t *testing.T) {
	r := &ReLU{}
	x := NewTensor(1, 1, 1, 4)
	copy(x.Data, []float64{-1, 0, 2, -3})
	y := r.Forward(x)
	want := []float64{0, 0, 2, 0}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("relu = %v", y.Data)
		}
	}
	g := NewTensor(1, 1, 1, 4)
	copy(g.Data, []float64{1, 1, 1, 1})
	dx := r.Backward(g)
	wantG := []float64{0, 0, 1, 0}
	for i := range wantG {
		if dx.Data[i] != wantG[i] {
			t.Fatalf("relu grad = %v", dx.Data)
		}
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	m := &MaxPool3D{}
	x := NewTensor(1, 2, 2, 2)
	copy(x.Data, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	y := m.Forward(x)
	if y.Len() != 1 || y.Data[0] != 8 {
		t.Fatalf("pool = %v", y.Data)
	}
	g := NewTensor(1, 1, 1, 1)
	g.Data[0] = 5
	dx := m.Backward(g)
	for i, v := range dx.Data {
		want := 0.0
		if i == 7 {
			want = 5
		}
		if v != want {
			t.Fatalf("pool grad = %v", dx.Data)
		}
	}
}

func TestMaxPoolOddExtentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for odd pool input")
		}
	}()
	(&MaxPool3D{}).Forward(NewTensor(1, 3, 2, 2))
}

func TestNetworkShapesAndParamCount(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := NewNetwork(16, 2, 4, rng)
	x := RandomVolume(2, 16, rng)
	y := n.Forward(x)
	if y.C != 4 || y.D != 1 || y.H != 1 || y.W != 1 {
		t.Fatalf("output shape %dx%dx%dx%d", y.C, y.D, y.H, y.W)
	}
	if n.ParamCount() <= 0 {
		t.Error("no parameters")
	}
	// 16 → pool → 8 → pool (two conv blocks to reach 4).
	if len(n.Layers) != 2*3+3 {
		t.Errorf("layers = %d", len(n.Layers))
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := NewNetwork(8, 1, 2, rng)
	// A fixed input-target pair: the network must overfit it quickly.
	x := RandomVolume(1, 8, rng)
	target := NewTensor(2, 1, 1, 1)
	target.Data[0], target.Data[1] = 0.5, -0.25
	first, _ := MSELoss(n.Forward(x), target)
	var last float64
	for i := 0; i < 60; i++ {
		n.ZeroGrads()
		pred := n.Forward(x)
		loss, g := MSELoss(pred, target)
		n.Backward(g)
		n.SGDStep(0.005)
		last = loss
	}
	if last >= first/2 {
		t.Errorf("loss %v → %v; SGD failed to reduce it", first, last)
	}
}

func TestMSELossShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MSELoss(NewTensor(1, 1, 1, 1), NewTensor(2, 1, 1, 1))
}

// --- Performance mode ---

// fastPerf is a small config for tests.
func fastPerf() PerfConfig {
	return PerfConfig{
		GPUs: 1, BatchSize: 4, Epochs: 1,
		TrainSamples: 32, ValSamples: 16,
		InputSide: 32, Cores: 8,
	}
}

func TestPerfValidation(t *testing.T) {
	bad := fastPerf()
	bad.InputSide = 24 // not a power of two
	if _, err := RunPerf(bad); err == nil {
		t.Error("invalid input side accepted")
	}
	for _, slack := range []sim.Duration{-1, sim.Duration(math.NaN()), sim.Duration(math.Inf(1))} {
		bad = fastPerf()
		bad.Slack = slack
		if _, err := RunPerf(bad); err == nil {
			t.Errorf("slack %v accepted", slack)
		}
	}
	bad = fastPerf()
	bad.TrainSamples = 1
	bad.GPUs = 2
	if _, err := RunPerf(bad); err == nil {
		t.Error("insufficient samples accepted")
	}
}

func TestPerfRunsAndReports(t *testing.T) {
	r, err := RunPerf(fastPerf())
	if err != nil {
		t.Fatal(err)
	}
	if r.TrainSteps != 8 {
		t.Errorf("TrainSteps = %d, want 8", r.TrainSteps)
	}
	if r.Runtime <= 0 || r.StepTime <= 0 {
		t.Errorf("runtime %v steptime %v", r.Runtime, r.StepTime)
	}
	if r.ParamBytes <= 0 {
		t.Error("no parameter bytes")
	}
	if r.GPUUtilization <= 0 || r.GPUUtilization > 1 {
		t.Errorf("utilization = %v", r.GPUUtilization)
	}
}

func TestPerfCPUAffinityMatchesPaper(t *testing.T) {
	// §IV-A: CosmoFlow needs 2 cores; more processes/threads give nothing.
	cfg := fastPerf()
	times := map[int]sim.Duration{}
	for _, cores := range []int{1, 2, 4, 8} {
		cfg.Cores = cores
		r, err := RunPerf(cfg)
		if err != nil {
			t.Fatal(err)
		}
		times[cores] = r.Runtime
	}
	if times[1] <= times[2] {
		t.Errorf("1 core (%v) not slower than 2 (%v)", times[1], times[2])
	}
	if times[4] != times[2] || times[8] != times[2] {
		t.Errorf("extra cores changed runtime: 2=%v 4=%v 8=%v", times[2], times[4], times[8])
	}
}

func TestPerfTraceHasManyKernelKinds(t *testing.T) {
	cfg := fastPerf()
	cfg.Record = true
	r, err := RunPerf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Trace == nil {
		t.Fatal("no trace")
	}
	kinds := r.Trace.KernelDurationsByName()
	// CosmoFlow "executes dozens of different" kernels; our mini version
	// must at least show a rich mix (conv fwd/dgrad/wgrad per block,
	// elementwise, pool, dense).
	if len(kinds) < 10 {
		t.Errorf("distinct kernel names = %d, want ≥ 10", len(kinds))
	}
	top := r.Trace.TopKernels(5)
	var topTime, total sim.Duration
	for _, g := range top {
		topTime += g.Total
	}
	total = r.Trace.KernelTime()
	frac := float64(topTime) / float64(total)
	// Paper: top five kernels ≈ 49.9% of CosmoFlow's kernel time. Our mix
	// is narrower, but the top five must not be the whole story.
	if frac <= 0.3 || frac > 0.98 {
		t.Errorf("top-5 kernel fraction = %.3f", frac)
	}
	// Input copies land in the large-transfer bins; loss readbacks are
	// tiny — the bimodal Figure 5 shape.
	sizes := r.Trace.MemcpySizes()
	var small, large int
	for _, s := range sizes {
		if s <= 64<<10 {
			small++
		}
		if s >= 1<<20 { // batch input volumes (2 MiB at the test's 32³ input)
			large++
		}
	}
	if small == 0 || large == 0 {
		t.Errorf("memcpy size mix: %d small, %d large", small, large)
	}
}

func TestPerfSlackDelaysCalls(t *testing.T) {
	cfg := fastPerf()
	cfg.Slack = 10 * sim.Microsecond
	r, err := RunPerf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.DelayedCalls == 0 {
		t.Error("no delayed calls under slack")
	}
	base, err := RunPerf(fastPerf())
	if err != nil {
		t.Fatal(err)
	}
	if r.Runtime <= base.Runtime {
		t.Errorf("slack run %v not slower than baseline %v", r.Runtime, base.Runtime)
	}
}

func TestPerfDataParallelScaling(t *testing.T) {
	// More GPUs split the same dataset: runtime must drop, though not
	// perfectly (allreduce + loader overheads).
	cfg := fastPerf()
	cfg.TrainSamples = 64
	one, err := RunPerf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.GPUs = 4
	four, err := RunPerf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(one.Runtime) / float64(four.Runtime)
	if speedup < 1.5 || speedup > 4.5 {
		t.Errorf("4-GPU speedup = %.2f, want meaningful but sublinear-ish", speedup)
	}
}

func TestPerfDeterminism(t *testing.T) {
	run := func() sim.Duration {
		r, err := RunPerf(fastPerf())
		if err != nil {
			t.Fatal(err)
		}
		return r.Runtime
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestParamBytesScale(t *testing.T) {
	// The 128³ model must be megabytes of parameters (CosmoFlow ≈ a few M
	// params), and grow with depth.
	small := paramBytes(32, 4)
	big := paramBytes(128, 4)
	if big <= small {
		t.Errorf("paramBytes not growing: %d vs %d", big, small)
	}
	if big < 1<<20 || big > 1<<30 {
		t.Errorf("paramBytes(128) = %d, want megabytes", big)
	}
}

// --- Dataset and trainer (numeric pipeline) ---

func TestDatasetDeterministicAndShaped(t *testing.T) {
	a := NewDataset(4, 1, 8, 4, 7)
	b := NewDataset(4, 1, 8, 4, 7)
	if len(a.Samples) != 4 {
		t.Fatalf("samples = %d", len(a.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i].Volume.Len() != 512 || a.Samples[i].Target.Len() != 4 {
			t.Fatalf("sample %d shapes wrong", i)
		}
		for j := range a.Samples[i].Volume.Data {
			if a.Samples[i].Volume.Data[j] != b.Samples[i].Volume.Data[j] {
				t.Fatal("dataset nondeterministic")
			}
		}
	}
}

func TestDatasetTargetsInfluenceVolumes(t *testing.T) {
	// Two samples with different θ must produce different volumes beyond
	// the noise floor (the task is learnable).
	ds := NewDataset(8, 1, 8, 4, 1)
	var maxDiff float64
	for i := 1; i < len(ds.Samples); i++ {
		var d float64
		for j := range ds.Samples[0].Volume.Data {
			v := ds.Samples[i].Volume.Data[j] - ds.Samples[0].Volume.Data[j]
			d += v * v
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff < 1 {
		t.Errorf("volumes nearly identical across targets: %v", maxDiff)
	}
}

func TestDatasetSplit(t *testing.T) {
	ds := NewDataset(10, 1, 8, 2, 3)
	train, val := ds.Split(0.8)
	if len(train.Samples) != 8 || len(val.Samples) != 2 {
		t.Fatalf("split = %d/%d", len(train.Samples), len(val.Samples))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid split accepted")
		}
	}()
	ds.Split(1.5)
}

func TestTrainerLearnsSyntheticTask(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds := NewDataset(12, 1, 8, 2, 5)
	train, val := ds.Split(0.75)
	tr := &Trainer{Net: NewNetwork(8, 1, 2, rng), LR: 0.01, Clip: 1}
	before := tr.Evaluate(val)
	var last float64
	for e := 0; e < 8; e++ {
		last = tr.TrainEpoch(train)
	}
	after := tr.Evaluate(val)
	if last <= 0 {
		t.Fatalf("train loss = %v", last)
	}
	if after >= before {
		t.Errorf("validation loss did not improve: %v → %v", before, after)
	}
}

func TestDatasetInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewDataset(0, 1, 8, 2, 1)
}
