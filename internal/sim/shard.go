package sim

// Shard is an ownership domain within an Env: the spawn-time key (a device,
// a node, an OpenMP thread) that records which hardware domain a process
// models. Shards change nothing about delivery order — every wake-up goes
// through the environment's single (time, seq) queue — so experiment
// outputs are byte-identical with one shard or fifty. The key exists for
// the shard-ownership checks that reason about which domain may touch
// which state.
type Shard struct {
	env *Env
	id  int
}

// NewShard creates an additional event domain. Processes that model one
// hardware domain (a device, a node, a submitter thread) should share a
// shard; unrelated domains should get their own.
func (e *Env) NewShard() *Shard {
	if len(e.shardSlab) == 0 {
		e.shardSlab = make([]Shard, 8)
	}
	s := &e.shardSlab[0]
	e.shardSlab = e.shardSlab[1:]
	s.env, s.id = e, e.nshards
	e.nshards++
	return s
}

// Env returns the environment that owns the shard.
func (s *Shard) Env() *Env { return s.env }

// ID returns the shard's creation index; shard 0 is the environment's
// default domain.
func (s *Shard) ID() int { return s.id }

// Spawn creates a process in this shard running fn, starting at the
// current virtual time.
func (s *Shard) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.SpawnAt(0, name, fn)
}

// SpawnAt is Spawn with a start delay.
func (s *Shard) SpawnAt(delay Duration, name string, fn func(p *Proc)) *Proc {
	return s.env.spawnAt(s, delay, name, fn)
}
