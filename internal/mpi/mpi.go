// Package mpi provides a miniature message-passing runtime over the
// discrete-event simulator: ranks as simulated processes, point-to-point
// send/receive with a latency/bandwidth cost model, and the collectives the
// workloads need (Barrier, Bcast, Allreduce, Gather).
//
// The LAMMPS mini-app uses it for domain-decomposition halo exchange; the
// Horovod layer builds gradient averaging on Allreduce. Costs follow the
// classic alpha-beta model with ring algorithms for the dense collectives.
package mpi

import (
	"fmt"
	"strconv"

	"repro/internal/sim"
)

// CostModel is the alpha-beta communication model: each message costs
// Alpha + bytes/Beta on the critical path.
type CostModel struct {
	// Alpha is the per-message latency.
	Alpha sim.Duration
	// Beta is the link bandwidth in bytes/second.
	Beta float64
}

// IntraNode returns the cost model for ranks on one node (shared-memory
// transport): sub-microsecond latency, memory-bus bandwidth.
func IntraNode() CostModel {
	return CostModel{Alpha: 400 * sim.Nanosecond, Beta: 40e9}
}

// InterNode returns the cost model for ranks across an HPC network
// (the ~1 µs half-round-trip regime the paper cites).
func InterNode() CostModel {
	return CostModel{Alpha: 1 * sim.Microsecond, Beta: 23e9}
}

// NVLink returns the cost model for GPUs coupled inside one chassis with
// NVLink-class links — the tight GPU-to-GPU coupling the paper's
// Discussion credits CDI chassis with enabling for collectives.
func NVLink() CostModel {
	return CostModel{Alpha: 150 * sim.Nanosecond, Beta: 150e9}
}

// transferTime returns the cost of moving n bytes point-to-point.
func (c CostModel) transferTime(n int64) sim.Duration {
	if n < 0 {
		panic("mpi: negative message size")
	}
	t := c.Alpha
	if c.Beta > 0 {
		t += sim.Duration(float64(n) / c.Beta)
	}
	return t
}

// message is one in-flight point-to-point payload.
type message struct {
	src, tag int
	bytes    int64
	payload  any
}

// World is a communicator: a fixed set of ranks over one environment. Only
// rank processes touch communicator state; a send writes into another
// rank's inbox and fires that rank's avail signal.
type World struct {
	env  *sim.Env
	size int
	cost CostModel
	// inbox holds in-flight messages per destination rank.
	inbox [][]*message
	avail []*sim.Signal

	collSeq  []int
	colls    map[int]*collective
	bytesP2P int64
	msgsP2P  int64

	// free recycles delivered messages: halo exchanges send several
	// messages per rank step, and each would otherwise be an allocation.
	free []*message
}

// collective is the rendezvous state for one collective call site.
type collective struct {
	arrived  int
	picked   int
	payloads []any
	result   any
	done     *sim.Signal
	kind     string
}

// NewWorld creates a communicator of the given size on env. Spawn rank
// processes with Spawn, then drive env.Run.
func NewWorld(env *sim.Env, size int, cost CostModel) *World {
	if size <= 0 {
		panic("mpi: world size must be positive")
	}
	w := &World{
		env:     env,
		size:    size,
		cost:    cost,
		inbox:   make([][]*message, size),
		avail:   make([]*sim.Signal, size),
		collSeq: make([]int, size),
		colls:   make(map[int]*collective),
	}
	for i := range w.avail {
		w.avail[i] = sim.NewSignal(env)
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Cost returns the communicator's cost model.
func (w *World) Cost() CostModel { return w.cost }

// MessagesSent returns the number of point-to-point messages delivered.
func (w *World) MessagesSent() int64 { return w.msgsP2P }

// BytesSent returns the point-to-point payload bytes delivered.
func (w *World) BytesSent() int64 { return w.bytesP2P }

// Rank is one process's endpoint in a World.
type Rank struct {
	w    *World
	rank int
	p    *sim.Proc
}

// Spawn starts fn as the body of the given rank. Each rank of the world
// must be spawned exactly once.
func (w *World) Spawn(rank int, fn func(r *Rank)) {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpi: rank %d out of world size %d", rank, w.size))
	}
	w.env.Spawn("rank"+strconv.Itoa(rank), func(p *sim.Proc) {
		fn(&Rank{w: w, rank: rank, p: p})
	})
}

// SpawnAll starts fn on every rank.
func (w *World) SpawnAll(fn func(r *Rank)) {
	for i := 0; i < w.size; i++ {
		w.Spawn(i, fn)
	}
}

// Rank returns this endpoint's rank index.
func (r *Rank) Rank() int { return r.rank }

// Size returns the world size.
func (r *Rank) Size() int { return r.w.size }

// Proc returns the simulated process executing this rank.
func (r *Rank) Proc() *sim.Proc { return r.p }

// Send transmits payload (with an explicit wire size in bytes) to rank dst
// with the given tag. The sender blocks for the transfer cost; the message
// becomes receivable when Send returns (a rendezvous-free eager model whose
// cost lands on the sender, the pessimistic accounting).
func (r *Rank) Send(dst, tag int, bytes int64, payload any) {
	if dst < 0 || dst >= r.w.size {
		panic(fmt.Sprintf("mpi: send to rank %d of %d", dst, r.w.size))
	}
	r.p.Sleep(r.w.cost.transferTime(bytes))
	var m *message
	if n := len(r.w.free); n > 0 {
		m = r.w.free[n-1]
		r.w.free[n-1] = nil
		r.w.free = r.w.free[:n-1]
	} else {
		m = new(message)
	}
	m.src, m.tag, m.bytes, m.payload = r.rank, tag, bytes, payload
	r.w.inbox[dst] = append(r.w.inbox[dst], m)
	r.w.msgsP2P++
	r.w.bytesP2P += bytes
	r.w.avail[dst].Fire()
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload and size.
func (r *Rank) Recv(src, tag int) (any, int64) {
	for {
		box := r.w.inbox[r.rank]
		for i, m := range box {
			if m.src == src && m.tag == tag {
				// Close the gap and clear the vacated tail slot, so the
				// inbox's spare capacity pins no delivered message.
				copy(box[i:], box[i+1:])
				box[len(box)-1] = nil
				r.w.inbox[r.rank] = box[:len(box)-1]
				payload, n := m.payload, m.bytes
				m.payload = nil
				r.w.free = append(r.w.free, m)
				return payload, n
			}
		}
		r.w.avail[r.rank].Wait(r.p)
	}
}

// Sendrecv exchanges messages with a partner rank without deadlocking:
// both sides' sends complete before either receive is required.
func (r *Rank) Sendrecv(dst, sendTag int, bytes int64, payload any, src, recvTag int) (any, int64) {
	r.Send(dst, sendTag, bytes, payload)
	return r.Recv(src, recvTag)
}

// enterCollective synchronizes all ranks at one collective call site. The
// reduce function runs once, on the last-arriving rank, over all payloads
// in rank order. Every rank then pays cost before proceeding.
func (r *Rank) enterCollective(kind string, payload any, cost sim.Duration, reduce func(payloads []any) any) any {
	w := r.w
	seq := w.collSeq[r.rank]
	w.collSeq[r.rank]++
	st, ok := w.colls[seq]
	if !ok {
		st = &collective{
			payloads: make([]any, w.size),
			done:     sim.NewSignal(w.env),
			kind:     kind,
		}
		w.colls[seq] = st
	}
	if st.kind != kind {
		panic(fmt.Sprintf("mpi: collective mismatch at sequence %d: %s vs %s (ranks diverged)", seq, st.kind, kind))
	}
	st.payloads[r.rank] = payload
	st.arrived++
	if st.arrived == w.size {
		if reduce != nil {
			st.result = reduce(st.payloads)
		}
		st.done.Fire()
	} else {
		st.done.Wait(r.p)
	}
	res := st.result
	st.picked++
	if st.picked == w.size {
		delete(w.colls, seq)
	}
	r.p.Sleep(cost)
	return res
}

// Barrier blocks until every rank reaches it; cost is a log-depth
// latency tree.
func (r *Rank) Barrier() {
	cost := r.w.cost.Alpha * sim.Duration(log2ceil(r.w.size))
	r.enterCollective("barrier", nil, cost, nil)
}

// Op is a reduction operator for Allreduce.
type Op int

const (
	// OpSum element-wise adds.
	OpSum Op = iota
	// OpMax takes the element-wise maximum.
	OpMax
	// OpMin takes the element-wise minimum.
	OpMin
)

// Allreduce combines each rank's vector element-wise with op and returns
// the combined vector to every rank. The cost follows the ring algorithm:
// 2(P-1) steps, each moving bytes/P.
func (r *Rank) Allreduce(values []float64, op Op) []float64 {
	bytes := int64(len(values) * 8)
	cost := r.ringCost(bytes)
	res := r.enterCollective("allreduce", values, cost, func(payloads []any) any {
		if len(payloads) == 0 {
			return []float64(nil)
		}
		first := payloads[0].([]float64)
		out := append([]float64(nil), first...)
		for _, pl := range payloads[1:] {
			vec := pl.([]float64)
			if len(vec) != len(out) {
				panic(fmt.Sprintf("mpi: allreduce length mismatch: %d vs %d", len(vec), len(out)))
			}
			for i, v := range vec {
				switch op {
				case OpSum:
					out[i] += v
				case OpMax:
					if v > out[i] {
						out[i] = v
					}
				case OpMin:
					if v < out[i] {
						out[i] = v
					}
				default:
					panic(fmt.Sprintf("mpi: unknown op %d", op))
				}
			}
		}
		return out
	})
	return res.([]float64)
}

// ringCost is the ring-allreduce critical path for n payload bytes.
func (r *Rank) ringCost(n int64) sim.Duration {
	p := r.w.size
	if p == 1 {
		return 0
	}
	steps := sim.Duration(2 * (p - 1))
	chunk := float64(n) / float64(p)
	per := r.w.cost.Alpha
	if r.w.cost.Beta > 0 {
		per += sim.Duration(chunk / r.w.cost.Beta)
	}
	return steps * per
}

// Bcast distributes root's vector to every rank (binomial-tree cost).
func (r *Rank) Bcast(values []float64, root int) []float64 {
	if root < 0 || root >= r.w.size {
		panic(fmt.Sprintf("mpi: bcast root %d of %d", root, r.w.size))
	}
	bytes := int64(len(values) * 8)
	cost := sim.Duration(log2ceil(r.w.size)) * r.w.cost.transferTime(bytes)
	var payload any
	if r.rank == root {
		payload = values
	}
	res := r.enterCollective("bcast", payload, cost, func(payloads []any) any {
		return payloads[root]
	})
	if res == nil {
		return nil
	}
	return append([]float64(nil), res.([]float64)...)
}

// Gather collects every rank's vector at root (returned in rank order);
// non-root ranks receive nil.
func (r *Rank) Gather(values []float64, root int) [][]float64 {
	if root < 0 || root >= r.w.size {
		panic(fmt.Sprintf("mpi: gather root %d of %d", root, r.w.size))
	}
	bytes := int64(len(values) * 8)
	// Root receives P-1 messages serialized at its NIC.
	cost := sim.Duration(r.w.size-1) * r.w.cost.transferTime(bytes)
	res := r.enterCollective("gather", values, cost, func(payloads []any) any {
		out := make([][]float64, len(payloads))
		for i, pl := range payloads {
			if pl != nil {
				out[i] = pl.([]float64)
			}
		}
		return out
	})
	if r.rank != root {
		return nil
	}
	return res.([][]float64)
}

// AllreduceBytes synchronizes all ranks and charges the ring-allreduce
// cost for n payload bytes without moving data — the cost-model path used
// by performance-mode workloads whose gradient buffers would be wasteful
// to materialize.
func (r *Rank) AllreduceBytes(n int64) {
	if n < 0 {
		panic("mpi: negative allreduce size")
	}
	r.enterCollective("allreduce-bytes", nil, r.ringCost(n), nil)
}

// AllreduceScalar is Allreduce for a single value.
func (r *Rank) AllreduceScalar(v float64, op Op) float64 {
	return r.Allreduce([]float64{v}, op)[0]
}

// log2ceil returns ceil(log2(n)) for n >= 1.
func log2ceil(n int) int {
	k, v := 0, 1
	for v < n {
		v <<= 1
		k++
	}
	return k
}
