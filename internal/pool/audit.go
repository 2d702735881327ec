package pool

import "fmt"

// audit recounts every mirrored aggregate — freeHist, the free-count
// index, freeRack, freeRow, totalFree and stranded — from per-server
// truth (free, live, pinned, jobsOn, allocs) and checks the GPU and job
// conservation laws, returning the first disagreement. Tests and fuzzers
// call it between simulation segments; the scheduler never does.
func (s *Scheduler) audit() error {
	g := s.topo.GPUsPerServer
	// held is the GPUs placed jobs hold on each server, by their slices.
	held := make([]int, len(s.free))
	counts := make([]int, allocKilled+1)
	for id, a := range s.allocs {
		if a.state > allocKilled {
			return fmt.Errorf("pool audit: job %d in unknown state %d", id, a.state)
		}
		counts[a.state]++
		if pending := id >= s.nextArrival; pending != (a.state == allocPending) {
			return fmt.Errorf("pool audit: job %d state %d, next arrival %d", id, a.state, s.nextArrival)
		}
		if a.state != allocPlaced {
			if a.slices != nil {
				return fmt.Errorf("pool audit: job %d in state %d still holds %v", id, a.state, a.slices)
			}
			continue
		}
		sum := 0
		for _, x := range a.slices {
			held[x.server] += x.gpus
			sum += x.gpus
		}
		if sum != s.jobs[id].Gang {
			return fmt.Errorf("pool audit: job %d slices %v hold %d GPUs, gang %d", id, a.slices, sum, s.jobs[id].Gang)
		}
	}
	if counts[allocPlaced] != s.runningJobs {
		return fmt.Errorf("pool audit: %d jobs placed, runningJobs %d", counts[allocPlaced], s.runningJobs)
	}
	if counts[allocQueued] != len(s.queue) {
		return fmt.Errorf("pool audit: %d jobs queued, queue length %d", counts[allocQueued], len(s.queue))
	}
	for _, id := range s.queue {
		if s.allocs[id].state != allocQueued {
			return fmt.Errorf("pool audit: queued job %d in state %d", id, s.allocs[id].state)
		}
	}
	if counts[allocKilled] != s.stats.Killed {
		return fmt.Errorf("pool audit: %d jobs killed, stats %d", counts[allocKilled], s.stats.Killed)
	}

	hist := make([]int, g+1)
	rack := make([]int, len(s.freeRack))
	row := make([]int, len(s.freeRow))
	total, stranded := 0, 0
	for sv, f := range s.free {
		live := s.live[sv]
		for k := 0; k <= s.anySet(); k++ {
			if want := live && (k == f || (k == s.anySet() && f > 0)); s.inSet(k, sv) != want {
				return fmt.Errorf("pool audit: server %d (live %v, free %d) membership in index set %d is %v",
					sv, live, f, k, !want)
			}
		}
		byList := 0
		for _, id := range s.jobsOn[sv] {
			a := s.allocs[id]
			if a.state != allocPlaced {
				return fmt.Errorf("pool audit: server %d lists job %d in state %d", sv, id, a.state)
			}
			for _, x := range a.slices {
				if x.server == sv {
					byList += x.gpus
				}
			}
		}
		if byList != held[sv] {
			return fmt.Errorf("pool audit: server %d job list holds %d GPUs, placed slices %d", sv, byList, held[sv])
		}
		if !live {
			if f != 0 || held[sv] != 0 {
				return fmt.Errorf("pool audit: drained server %d has free %d, holds %d", sv, f, held[sv])
			}
			continue
		}
		capEff := s.capEff(sv)
		if f < 0 || f > capEff || capEff-f != held[sv] {
			return fmt.Errorf("pool audit: server %d occupancy %d (cap %d, free %d), placed jobs hold %d",
				sv, capEff-f, capEff, f, held[sv])
		}
		hist[f]++
		rack[s.topo.RackOf(sv)] += f
		row[s.topo.RowOf(sv)] += f
		total += f
		stranded += strandedContrib(f, capEff, s.refGang)
	}
	for f := range hist {
		if hist[f] != s.freeHist[f] {
			return fmt.Errorf("pool audit: freeHist[%d] = %d, recount %d", f, s.freeHist[f], hist[f])
		}
	}
	for r := range rack {
		if rack[r] != s.freeRack[r] {
			return fmt.Errorf("pool audit: freeRack[%d] = %d, recount %d", r, s.freeRack[r], rack[r])
		}
	}
	for w := range row {
		if row[w] != s.freeRow[w] {
			return fmt.Errorf("pool audit: freeRow[%d] = %d, recount %d", w, s.freeRow[w], row[w])
		}
	}
	if total != s.totalFree {
		return fmt.Errorf("pool audit: totalFree = %d, recount %d", s.totalFree, total)
	}
	if stranded != s.stranded {
		return fmt.Errorf("pool audit: stranded = %d, recount %d", s.stranded, stranded)
	}
	return nil
}
