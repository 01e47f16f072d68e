// Package tranad implements a transformer-based reconstruction anomaly
// detector in the style of TranAD (Tuli, Casale & Jennings, VLDB 2022),
// the deep-learning comparator of the paper's step 3: a self-attention
// encoder over a short window of samples feeds two decoders; the second
// decoder is self-conditioned on the first one's reconstruction error
// (the "focus score"), and the anomaly score of a sample is the averaged
// reconstruction error of both decoders on the window's last position.
//
// Compared to the reference PyTorch implementation the model is
// miniaturised (small model dimension, single encoder block, focus score
// treated as a constant input during backpropagation) so that training
// stays tractable on a CPU in pure Go; what the paper relies on — a
// reconstruction model that learns healthy signal structure from Ref and
// produces elevated errors on behavioural change, trainable with few
// samples and epochs — is preserved.
//
// Fit runs on the scratch-reuse nn kernels by default: training windows
// are zero-copy views into the standardised reference, the net, its
// scratch and the optimiser's one contiguous weight/gradient/moment
// arena are built once per detector and re-initialised in place by
// every later fit (a refit allocates nothing), and (at Batch 1, the
// default) the optimisation trajectory is bit-identical to the legacy
// allocate-per-call path preserved behind Config.LegacyFitKernels.
// Batch > 1 switches to minibatch gradient accumulation: each batch's
// per-window gradients are computed (in parallel across fitpool workers
// on multicore hosts) into per-window slots and reduced in window order,
// so results depend only on the Batch value, never on GOMAXPROCS.
package tranad

import (
	"math"
	"math/rand"

	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/fitpool"
	"github.com/navarchos/pdm/internal/mat"
	"github.com/navarchos/pdm/internal/nn"
)

// Config parametrises the model.
type Config struct {
	// Window is the sequence length the encoder attends over (default 8).
	Window int
	// DModel is the model width; must be divisible by Heads (default 16).
	DModel int
	// Heads is the number of attention heads (default 2).
	Heads int
	// Epochs is the number of training passes over the window set
	// (default 8 — TranAD is explicitly designed to converge in few
	// epochs).
	Epochs int
	// LR is the Adam learning rate (default 0.005).
	LR float64
	// MaxWindows caps the number of training windows drawn from Ref;
	// larger references are subsampled evenly (default 512).
	MaxWindows int
	// Seed drives weight initialisation and shuffling (default 1).
	Seed int64
	// Batch is the number of windows whose gradients are accumulated
	// into one Adam step (default 1, which reproduces the per-window
	// SGD trajectory of the legacy path bit for bit). Larger batches
	// train on the reassociating fast-dot kernels and fan window
	// gradients across the fitpool; the trajectory then depends only on
	// Batch, not on the worker count.
	Batch int
	// LegacyFitKernels restores the pre-optimisation allocate-per-call
	// training path (PR 2's LegacyKernels precedent). It is the oracle
	// of the kernel-equivalence tests.
	LegacyFitKernels bool
	// FullWindowScore pins scoring to the full-window forward pass (the
	// whole ring mapped through every layer each record) instead of the
	// default last-row path, which only evaluates the positions a score
	// actually depends on. Both are bit-identical to the legacy scorer;
	// the flag exists so tests can hold the last-row path to a
	// scratch-kernel oracle.
	FullWindowScore bool
	// WarmStart seeds a refit from the previous fit's weights instead of
	// reinitialising: when the detector has already been fitted at the
	// same dimensionality, Fit keeps the trained parameters, trains for
	// at most WarmEpochs and stops early once an epoch improves the loss
	// by less than WarmTol (relative). Asynchronous fleet refits re-fit
	// the same detector instance after every profile refill, so warm
	// starts cut the dominant refit cost to the few epochs needed to
	// track drift. Not available on the legacy path, and intentionally
	// NOT bit-identical to a cold fit — equivalence gates must leave it
	// unset.
	WarmStart bool
	// WarmEpochs is the warm refit epoch budget (default max(1, Epochs/2)).
	WarmEpochs int
	// WarmTol is the relative epoch-over-epoch loss improvement under
	// which a warm refit stops early (default 1e-3).
	WarmTol float64
	// FitTol is an opt-in early-stop budget for COLD full fits on the
	// fast path: when positive, a cold fit stops after any epoch whose
	// summed window loss improved on the previous epoch's by less than
	// FitTol relative — the same rule warm refits apply via WarmTol.
	// The default (0) runs every epoch, keeping cold fits bit-identical
	// to the legacy trainer; equivalence gates must leave it unset.
	// TranAD converges in few epochs by design, so a budget of ~1e-4
	// typically saves the tail epochs of profile-sized fits unchanged
	// in F-score.
	FitTol float64
}

func (c *Config) defaults() {
	if c.Window <= 1 {
		c.Window = 8
	}
	if c.DModel <= 0 {
		c.DModel = 16
	}
	if c.Heads <= 0 {
		c.Heads = 2
	}
	if c.DModel%c.Heads != 0 {
		c.DModel = (c.DModel/c.Heads + 1) * c.Heads
	}
	if c.Epochs <= 0 {
		c.Epochs = 8
	}
	if c.LR <= 0 {
		c.LR = 0.005
	}
	if c.MaxWindows <= 0 {
		c.MaxWindows = 512
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	if c.WarmEpochs <= 0 {
		c.WarmEpochs = c.Epochs / 2
		if c.WarmEpochs < 1 {
			c.WarmEpochs = 1
		}
	}
	if c.WarmTol <= 0 {
		c.WarmTol = 1e-3
	}
}

// fitNet bundles one instance of the model's four sub-nets with the
// scratch a training step needs. The detector's own nets form the
// master fitNet; minibatch training builds additional replicas.
type fitNet struct {
	enc  *nn.Sequential
	dec1 *nn.Sequential
	fuse *nn.Linear
	dec2 *nn.Sequential

	// inf holds typed references to the individual layers inside the
	// sequentials above, in evaluation order, for the last-row scoring
	// path: per-record inference walks the layers directly through
	// their ApplyRow/AttendLast kernels instead of Forward-mapping the
	// whole window.
	inf inferRefs

	params []*nn.Param
	// opt is the optimiser over params and the owner of their arena;
	// only the detector's master net has one.
	opt *nn.Adam

	g1, g2, foc, x2, dz mat.Matrix
	winView             mat.Matrix
}

// inferRefs names the layers of one model instance for row-level
// inference. fuse is the detector's fuse Linear and is not repeated
// here.
type inferRefs struct {
	encLin *nn.Linear             // dim -> dm input projection
	pe     *nn.PositionalEncoding // sinusoidal table
	attn   *nn.SelfAttention      // inside the first residual block
	ln1    *nn.LayerNorm          // post-attention norm
	ffn1   *nn.Linear             // dm -> 2dm
	ffn2   *nn.Linear             // 2dm -> dm
	ln2    *nn.LayerNorm          // post-FFN norm
	dec1a  *nn.Linear             // dm -> dm
	dec1b  *nn.Linear             // dm -> dim
	dec2b  *nn.Linear             // dm -> dim (after the fuse ReLU)
}

// Detector is the TranAD-style reconstruction detector. It emits a
// single score channel (window reconstruction error).
type Detector struct {
	cfg Config
	dim int

	// standardisation from Ref
	means, stds []float64

	enc  *nn.Sequential // d -> dm, positional, attention block
	dec1 *nn.Sequential // dm -> d
	fuse *nn.Linear     // dm+d -> dm (self-conditioning input of decoder 2)
	dec2 *nn.Sequential // dm -> d

	master *fitNet // scratch bound to the nets above (fast path)

	// fit scratch, reused by every refit: the standardised reference,
	// the window start offsets and the seeded generator
	std    mat.Matrix
	starts []int
	rng    *rand.Rand

	// streaming window of standardised samples
	ring [][]float64
	pos  int
	n    int

	swin mat.Matrix // Score window scratch (full-window fast path)

	// last-row scoring state: the input projection of each ring slot is
	// position-independent, so it is computed once when the slot is
	// (re)written and replayed until then. linOK goes false wholesale
	// whenever the weights or the ring change under the cache (Fit,
	// Restore).
	linCache [][]float64
	linOK    []bool
	sc       scoreScratch
}

// scoreScratch holds the per-detector row buffers of the last-row
// scoring path; everything is sized once per fit, so a warm Score
// allocates nothing.
type scoreScratch struct {
	l1           mat.Matrix // window after input projection + positional encoding
	attnOut      []float64  // dm: attention output for the last row
	res1, ln1row []float64  // dm
	ffnH         []float64  // 2dm
	ffnOut, res2 []float64  // dm
	zLast        []float64  // dm: encoder output for the last row
	d1h, fuseOut []float64  // dm
	o1, o2       []float64  // dim: both decoders' last-row reconstructions
	x2           []float64  // dm+dim: fused decoder-2 input
}

// New returns a TranAD detector with the given configuration.
func New(cfg Config) *Detector {
	cfg.defaults()
	return &Detector{cfg: cfg}
}

// Name implements detector.Detector.
func (d *Detector) Name() string { return "tranad" }

// Channels implements detector.Detector.
func (d *Detector) Channels() int { return 1 }

// ChannelNames implements detector.Detector.
func (d *Detector) ChannelNames() []string { return []string{"reconstruction"} }

// Fit implements detector.Detector: it standardises Ref, builds training
// windows, and trains the encoder and both decoders with the two-term
// reconstruction loss.
func (d *Detector) Fit(ref [][]float64) error {
	if len(ref) == 0 {
		return detector.ErrEmptyReference
	}
	dim := len(ref[0])
	for _, row := range ref {
		if len(row) != dim {
			return detector.ErrDimension
		}
	}
	// Warm start: an already-fitted detector at the same dimensionality
	// keeps its trained weights and runs a short budgeted refit instead
	// of a cold retrain.
	warm := d.cfg.WarmStart && !d.cfg.LegacyFitKernels && d.master != nil && d.dim == dim
	// The net and its optimiser arena are built once per detector and
	// input width; the legacy baseline rebuilds them on every fit.
	rebuild := d.master == nil || d.dim != dim || d.cfg.LegacyFitKernels
	d.dim = dim
	std := d.std.EnsureShape(len(ref), dim)
	for i, row := range ref {
		copy(std.Row(i), row)
	}
	if len(d.means) != dim {
		d.means, d.stds = make([]float64, dim), make([]float64, dim)
	}
	std.StandardizeInPlace(d.means, d.stds)

	if d.rng == nil {
		d.rng = rand.New(rand.NewSource(d.cfg.Seed))
	} else {
		d.rng.Seed(d.cfg.Seed)
	}
	rng := d.rng
	if rebuild {
		d.buildNet(dim, rng)
	} else {
		if !warm {
			// A cold refit on the existing net: the same draws, in the
			// same order, as building it anew.
			nn.InitParams(d.master.params, rng)
		}
		d.master.opt.Reset()
	}
	opt := d.master.opt

	// Training windows: consecutive slices of the standardised Ref,
	// evenly subsampled down to MaxWindows.
	w := d.cfg.Window
	starts := d.starts[:0]
	if std.Rows >= w {
		total := std.Rows - w + 1
		stride := 1
		if total > d.cfg.MaxWindows {
			stride = total / d.cfg.MaxWindows
		}
		for s := 0; s+w <= std.Rows; s += stride {
			starts = append(starts, s)
		}
	} else {
		// Reference shorter than a window: train on the whole profile
		// as one (short) sequence.
		starts = append(starts, 0)
		w = std.Rows
	}
	d.starts = starts

	if d.cfg.LegacyFitKernels {
		for epoch := 0; epoch < d.cfg.Epochs; epoch++ {
			rng.Shuffle(len(starts), func(i, j int) { starts[i], starts[j] = starts[j], starts[i] })
			for _, s := range starts {
				win := mat.NewMatrix(w, dim)
				for r := 0; r < w; r++ {
					copy(win.Row(r), std.Row(s+r))
				}
				d.trainStepLegacy(win, opt)
			}
		}
	} else {
		epochs, tol := d.cfg.Epochs, d.cfg.FitTol
		if warm {
			epochs, tol = d.cfg.WarmEpochs, d.cfg.WarmTol
		}
		d.fitFast(std, starts, w, dim, rng, opt, epochs, tol)
	}

	// A fresh score window. The rows are kept across refits at the same
	// width (a slot is rewritten before it is read); the legacy scorer
	// replaces them anyway.
	if len(d.ring) != d.cfg.Window {
		d.ring = make([][]float64, d.cfg.Window)
	}
	for i, row := range d.ring {
		if len(row) != dim {
			d.ring[i] = nil
		}
	}
	d.pos, d.n = 0, 0
	d.resetInferCache()
	return nil
}

// fitFast is the scratch-kernel training loop. Windows are views into
// the standardised reference (the rows of one window are contiguous in
// memory), so the epoch loop performs no copies and — once the layer
// scratch is warm — no allocations. epochs bounds the pass count; a
// positive tol additionally stops after any epoch whose summed window
// loss improved on the previous epoch's by less than tol relative (the
// warm-start early-stop budget; cold fits pass tol 0 and always run
// every epoch).
func (d *Detector) fitFast(std *mat.Matrix, starts []int, w, dim int, rng *rand.Rand, opt *nn.Adam, epochs int, tol float64) {
	batch := d.cfg.Batch
	if batch > len(starts) {
		batch = len(starts)
	}
	// Minibatch machinery, built only when a batch can actually span
	// more than one window.
	var mb *minibatch
	if batch > 1 {
		mb = d.newMinibatch(batch, dim)
	}

	var prevLoss float64
	for epoch := 0; epoch < epochs; epoch++ {
		var epochLoss float64
		rng.Shuffle(len(starts), func(i, j int) { starts[i], starts[j] = starts[j], starts[i] })
		for lo := 0; lo < len(starts); lo += batch {
			hi := lo + batch
			if hi > len(starts) {
				hi = len(starts)
			}
			if mb == nil {
				epochLoss += d.master.windowGrad(std, starts[lo], w, dim)
			} else {
				epochLoss = mb.grad(std, starts[lo:hi], w, dim, epochLoss)
			}
			opt.Step()
		}
		if tol > 0 && epoch > 0 && prevLoss-epochLoss < tol*math.Abs(prevLoss) {
			break
		}
		prevLoss = epochLoss
	}
}

// minibatch is the gradient-accumulation state of a Batch > 1 fit:
// per-window gradient and loss slots, plus net replicas for the extra
// fitpool workers.
type minibatch struct {
	master    *fitNet
	nets      []*fitNet     // nets[0] is the master
	slots     [][][]float64 // per window in the batch, per param
	gradBufs  [][][]float64 // every net's own gradient buffers, restored after each pass
	lossSlots []float64
}

func (d *Detector) newMinibatch(batch, dim int) *minibatch {
	workers := fitpool.Workers()
	if workers > batch {
		workers = batch
	}
	mb := &minibatch{master: d.master, lossSlots: make([]float64, batch)}
	mb.slots = make([][][]float64, batch)
	for i := range mb.slots {
		mb.slots[i] = make([][]float64, len(d.master.params))
		for pi, p := range d.master.params {
			mb.slots[i][pi] = make([]float64, len(p.G))
		}
	}
	mb.nets = make([]*fitNet, workers)
	mb.nets[0] = d.master
	throwaway := rand.New(rand.NewSource(1))
	for r := 1; r < workers; r++ {
		mb.nets[r] = d.newFitNet(dim, throwaway)
	}
	mb.gradBufs = make([][][]float64, workers)
	for r, n := range mb.nets {
		mb.gradBufs[r] = make([][]float64, len(n.params))
		for pi, p := range n.params {
			mb.gradBufs[r][pi] = p.G
		}
	}
	return mb
}

// grad leaves the summed gradient of the chunk's windows in the master's
// accumulators and returns loss plus their losses. It always reduces
// through per-window slots, even with one worker: direct sequential
// accumulation into G nests the additions differently and would make
// the bits depend on the worker count. The nets' gradient accumulators
// are pointed at the item's slot for the duration of the pass, so the
// window gradient lands in its slot without an extra copy.
func (mb *minibatch) grad(std *mat.Matrix, chunk []int, w, dim int, loss float64) float64 {
	nets, master := mb.nets, mb.master
	for r := 1; r < len(nets); r++ {
		nn.CopyWeights(nets[r].params, master.params)
	}
	fitpool.Run(len(chunk), len(nets), func(worker, item int) {
		net := nets[worker]
		for pi, p := range net.params {
			p.G = mb.slots[item][pi]
		}
		nn.ZeroGrads(net.params)
		mb.lossSlots[item] = net.windowGrad(std, chunk[item], w, dim)
	})
	// Restore every net's own gradient buffers (the master's are about
	// to accumulate the reduction, and aliasing a slot would corrupt it).
	for r, n := range nets {
		for pi, p := range n.params {
			p.G = mb.gradBufs[r][pi]
		}
	}
	nn.ZeroGrads(master.params)
	for item := range chunk {
		// Loss slots reduce in item order like the gradient slots, so
		// the early-stop decision is as worker-count-independent as the
		// weights.
		loss += mb.lossSlots[item]
		for pi, p := range master.params {
			mat.AddScaled(p.G, 1, mb.slots[item][pi])
		}
	}
	return loss
}

// buildNet constructs the encoder, both decoders and the fusion layer
// for input dimensionality dim. rng seeds the weight initialisation;
// restore rebuilds the same architecture and then overwrites every
// weight from the snapshot, so there the rng values are discarded.
func (d *Detector) buildNet(dim int, rng *rand.Rand) {
	net := d.newFitNet(dim, rng)
	net.opt = nn.NewAdam(net.params, d.cfg.LR)
	net.opt.Legacy = d.cfg.LegacyFitKernels
	d.enc, d.dec1, d.fuse, d.dec2 = net.enc, net.dec1, net.fuse, net.dec2
	d.master = net
}

// newFitNet builds one instance of the model (used for the detector
// itself and for minibatch replicas) and applies the configured kernel
// mode.
func (d *Detector) newFitNet(dim int, rng *rand.Rand) *fitNet {
	dm := d.cfg.DModel
	// Layers are constructed in the exact order of the original
	// composite literals so the rng draws (and therefore the initial
	// weights) are unchanged; the locals feed both the sequentials and
	// the inferRefs.
	encLin := nn.NewLinear(dim, dm, rng)
	pe := nn.NewPositionalEncoding(dm)
	attn := nn.NewSelfAttention(dm, d.cfg.Heads, rng)
	ln1 := nn.NewLayerNorm(dm)
	ffn1 := nn.NewLinear(dm, 2*dm, rng)
	ffn2 := nn.NewLinear(2*dm, dm, rng)
	ln2 := nn.NewLayerNorm(dm)
	net := &fitNet{
		enc: nn.NewSequential(
			encLin,
			pe,
			nn.NewResidual(attn),
			ln1,
			nn.NewResidual(nn.NewSequential(
				ffn1,
				nn.NewReLU(),
				ffn2,
			)),
			ln2,
		),
	}
	dec1a := nn.NewLinear(dm, dm, rng)
	dec1b := nn.NewLinear(dm, dim, rng)
	net.dec1 = nn.NewSequential(
		dec1a,
		nn.NewReLU(),
		dec1b,
	)
	net.fuse = nn.NewLinear(dm+dim, dm, rng)
	dec2b := nn.NewLinear(dm, dim, rng)
	net.dec2 = nn.NewSequential(
		nn.NewReLU(),
		dec2b,
	)
	net.inf = inferRefs{
		encLin: encLin, pe: pe, attn: attn,
		ln1: ln1, ffn1: ffn1, ffn2: ffn2, ln2: ln2,
		dec1a: dec1a, dec1b: dec1b, dec2b: dec2b,
	}
	net.params = net.collectParams()
	for _, l := range []nn.Layer{net.enc, net.dec1, net.fuse, net.dec2} {
		nn.SetLegacyKernels(l, d.cfg.LegacyFitKernels)
		// The reassociating attention dots are only enabled where the
		// bit-identical-to-legacy contract does not apply.
		nn.SetFastDots(l, !d.cfg.LegacyFitKernels && d.cfg.Batch > 1)
	}
	return net
}

func (n *fitNet) collectParams() []*nn.Param {
	var params []*nn.Param
	params = append(params, n.enc.Params()...)
	params = append(params, n.dec1.Params()...)
	params = append(params, n.fuse.Params()...)
	params = append(params, n.dec2.Params()...)
	return params
}

// params collects every trainable parameter across the four sub-nets in
// a fixed order (also the snapshot serialisation order).
func (d *Detector) params() []*nn.Param {
	return d.master.params
}

// windowGrad runs one forward/backward pass on the window starting at
// row s of std, accumulating parameter gradients (no optimiser step)
// and returning the window's summed two-decoder loss. The window is a
// zero-copy view: w consecutive rows of std are contiguous in its
// backing slice.
func (n *fitNet) windowGrad(std *mat.Matrix, s, w, dim int) float64 {
	n.winView.Rows, n.winView.Cols = w, dim
	n.winView.Data = std.Data[s*dim : (s+w)*dim]
	return n.forwardBackward(&n.winView)
}

// forwardBackward is the shared two-decoder loss pass of the fast path:
// the same operations as trainStepLegacy, on detector-owned scratch. It
// returns the summed loss of both decoders (the warm-start early-stop
// signal).
func (n *fitNet) forwardBackward(win *mat.Matrix) float64 {
	z := n.enc.Forward(win)
	o1 := n.dec1.Forward(z)
	l1, g1 := nn.MSELossInto(&n.g1, o1, win)

	x2 := concatColsInto(&n.x2, z, focusInto(&n.foc, o1, win))
	o2 := n.dec2.Forward(n.fuse.Forward(x2))
	l2, g2 := nn.MSELossInto(&n.g2, o2, win)

	dz1 := n.dec1.Backward(g1)
	dx2 := n.fuse.Backward(n.dec2.Backward(g2))
	// Only the z-columns of the fused input propagate into the encoder;
	// the focus score is treated as a constant (stop-gradient).
	dz := n.dz.EnsureShape(dz1.Rows, dz1.Cols)
	copy(dz.Data, dz1.Data)
	for r := 0; r < dz.Rows; r++ {
		zrow := dz.Row(r)
		frow := dx2.Row(r)
		for c := 0; c < dz.Cols; c++ {
			zrow[c] += frow[c]
		}
	}
	n.enc.Backward(dz)
	return l1 + l2
}

// trainStepLegacy runs one forward/backward pass on a window and applies
// Adam, allocating every intermediate — the pre-optimisation baseline.
func (d *Detector) trainStepLegacy(win *mat.Matrix, opt *nn.Adam) {
	z := d.enc.Forward(win)
	o1 := d.dec1.Forward(z)
	_, g1 := nn.MSELoss(o1, win)

	x2 := concatCols(z, focus(o1, win))
	o2 := d.dec2.Forward(d.fuse.Forward(x2))
	_, g2 := nn.MSELoss(o2, win)

	dz1 := d.dec1.Backward(g1)
	dx2 := d.fuse.Backward(d.dec2.Backward(g2))
	// Only the z-columns of the fused input propagate into the encoder;
	// the focus score is treated as a constant (stop-gradient).
	dz := dz1.Clone()
	for r := 0; r < dz.Rows; r++ {
		zrow := dz.Row(r)
		frow := dx2.Row(r)
		for c := 0; c < dz.Cols; c++ {
			zrow[c] += frow[c]
		}
	}
	d.enc.Backward(dz)
	opt.Step()
}

// focus returns the squared reconstruction error (O1 − W)², the
// self-conditioning input of decoder 2.
func focus(o1, win *mat.Matrix) *mat.Matrix {
	return focusInto(mat.NewMatrix(win.Rows, win.Cols), o1, win)
}

// focusInto is the allocation-free focus.
func focusInto(f, o1, win *mat.Matrix) *mat.Matrix {
	f.EnsureShape(win.Rows, win.Cols)
	for i := range f.Data {
		diff := o1.Data[i] - win.Data[i]
		f.Data[i] = diff * diff
	}
	return f
}

// concatCols returns [a | b] column-wise.
func concatCols(a, b *mat.Matrix) *mat.Matrix {
	return concatColsInto(mat.NewMatrix(a.Rows, a.Cols+b.Cols), a, b)
}

// concatColsInto is the allocation-free concatCols.
func concatColsInto(out, a, b *mat.Matrix) *mat.Matrix {
	out.EnsureShape(a.Rows, a.Cols+b.Cols)
	for r := 0; r < a.Rows; r++ {
		copy(out.Row(r)[:a.Cols], a.Row(r))
		copy(out.Row(r)[a.Cols:], b.Row(r))
	}
	return out
}

// Score implements detector.Detector: it appends x to the streaming
// window and returns the averaged two-decoder reconstruction error of
// the window's last position. Until the window fills the score is 0 (no
// alarm can fire while context is insufficient). The allocation-free
// equivalent is ScoreInto (score.go).
func (d *Detector) Score(x []float64) ([]float64, error) {
	out := make([]float64, 1)
	if err := d.ScoreInto(x, out); err != nil {
		return nil, err
	}
	return out, nil
}
