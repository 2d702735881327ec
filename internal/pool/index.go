package pool

import "math/bits"

// The free-count server index. For each free count f in
// 0..GPUsPerServer, set f is a bitset of the live servers with exactly f
// free GPUs; set GPUsPerServer+1 holds the live servers with any free
// GPU. All sets share one flat word slice, idxWords words each, so a
// claim flips O(1) bits and a placement query walks at most
// (GPUsPerServer+2)·servers/64 words instead of every server. freeHist
// counts each bucket's members, so empty buckets are skipped without
// touching their words. Drained servers belong to no set.

// anySet is the index of the "any free GPU" set.
func (s *Scheduler) anySet() int { return s.topo.GPUsPerServer + 1 }

// enter books a live server with f free GPUs into the histogram and the
// index; leave takes it out again.
func (s *Scheduler) enter(sv, f int) {
	s.freeHist[f]++
	s.idx[f*s.idxWords+sv>>6] |= 1 << (sv & 63)
	if f > 0 {
		s.idx[s.anySet()*s.idxWords+sv>>6] |= 1 << (sv & 63)
	}
}

func (s *Scheduler) leave(sv, f int) {
	s.freeHist[f]--
	s.idx[f*s.idxWords+sv>>6] &^= 1 << (sv & 63)
	if f > 0 {
		s.idx[s.anySet()*s.idxWords+sv>>6] &^= 1 << (sv & 63)
	}
}

// inSet reports whether server sv is a member of set k.
func (s *Scheduler) inSet(k, sv int) bool {
	return s.idx[k*s.idxWords+sv>>6]>>(sv&63)&1 != 0
}

// nextIn returns the lowest member of set k in [from, end), or -1.
func (s *Scheduler) nextIn(k, from, end int) int {
	set := s.idx[k*s.idxWords : (k+1)*s.idxWords]
	for i := from >> 6; i<<6 < end; i++ {
		w := set[i]
		if i == from>>6 {
			w &= ^uint64(0) << (from & 63)
		}
		if w != 0 {
			if sv := i<<6 + bits.TrailingZeros64(w); sv < end {
				return sv
			}
			return -1
		}
	}
	return -1
}
