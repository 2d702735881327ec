// Corpus for the barego analyzer: goroutines in simulation packages. The
// corpus loads under a synthetic repro/internal/... path so the rule is in
// scope. Lines marked "// want" must produce exactly one finding.
package corpus

import "sync"

func bareGoroutines(ch chan int) {
	go func() { ch <- 1 }() // want
	go helper(ch)           // want
}

func helper(ch chan int) { ch <- 2 }

func suppressedGoroutine(ch chan int) {
	//cdivet:allow barego corpus: demonstrates a justified suppression
	go helper(ch)
}

// closuresAreFine: only the go keyword creates scheduler-owned
// concurrency; plain function values stay on the caller's stack.
func closuresAreFine(ch chan int) {
	f := func() { ch <- 3 }
	f()
}

// structuredPool is the exempt shape: every worker Dones a sync.WaitGroup
// the spawning function Waits on after the go statement, so no goroutine
// outlives the pool.
func structuredPool(ch chan int, work []int) {
	var wg sync.WaitGroup
	for range work {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch <- 4
		}()
	}
	wg.Wait()
}

// nonDeferredDone also counts: the join is what matters, not how Done is
// reached.
func nonDeferredDone(ch chan int) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		ch <- 5
		wg.Done()
	}()
	wg.Wait()
}

// poolMissingWait: a Done with no Wait is not a join — the goroutine can
// outlive the function.
func poolMissingWait(ch chan int) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // want
		defer wg.Done()
		ch <- 6
	}()
}

// namedFunctionPool: the Done call lives in another function, so the join
// is not locally checkable and the analyzer stays conservative.
func namedFunctionPool(ch chan int) {
	var wg sync.WaitGroup
	wg.Add(1)
	go poolWorker(&wg, ch) // want
	wg.Wait()
}

func poolWorker(wg *sync.WaitGroup, ch chan int) {
	defer wg.Done()
	ch <- 7
}

// wrongWaitGroup: Done and Wait on different WaitGroups join nothing.
func wrongWaitGroup(ch chan int) {
	var producers, consumers sync.WaitGroup
	producers.Add(1)
	go func() { // want
		defer producers.Done()
		ch <- 8
	}()
	consumers.Wait()
}

// simWaitGroupIsNotAJoin: a same-named type from another package must not
// satisfy the exemption — only package sync's WaitGroup really blocks the
// spawning OS thread until the worker finishes.
type localWaitGroup struct{}

func (localWaitGroup) Add(int) {}
func (localWaitGroup) Done()   {}
func (localWaitGroup) Wait()   {}

func simWaitGroupIsNotAJoin(ch chan int) {
	var wg localWaitGroup
	wg.Add(1)
	go func() { // want
		defer wg.Done()
		ch <- 9
	}()
	wg.Wait()
}
