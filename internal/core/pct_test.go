package core

import (
	"math/rand"
	"sync"
)

// Worker states of the PCT stepper.
const (
	pctNew    int8 = iota // not called in yet
	pctReady              // waits in Yield
	pctParked             // waits in Park for a Wake
	pctGone               // returned for good
)

// pct is a Stepper that picks a schedule by PCT (Burckhardt et al., ASPLOS
// 2010): of the ready workers, the one with the highest priority runs. The
// priorities start as a seeded permutation, and at a few seeded step numbers
// the running worker drops below all the others. One worker runs at a time,
// and only once every worker has called in, so the schedule, and with it the
// block, is a function of the seed: a failing schedule replays exactly.
//
// Fig. 6's virtual clock (vclock in internal/bench/sim.go) keeps the same
// turn protocol and picks the lowest clock instead; a fix to either belongs
// in both.
type pct struct {
	mu      sync.Mutex
	prio    []int
	state   []int8
	resume  []chan struct{}
	started int
	holder  int // the running worker; -1: none
	steps   int
	drops   map[int]int // step number → the priority the running worker drops to
}

func newPCT(seed int64, workers, steps int) *pct {
	const depth = 3
	rng := rand.New(rand.NewSource(seed))
	p := &pct{prio: make([]int, workers), state: make([]int8, workers),
		resume: make([]chan struct{}, workers), holder: -1, drops: map[int]int{}}
	for w, r := range rng.Perm(workers) {
		p.prio[w], p.resume[w] = depth+r, make(chan struct{}, 1)
	}
	for d := 0; d < depth; d++ {
		p.drops[rng.Intn(steps)] = d
	}
	return p
}

// stop moves worker w into state st and resumes the next one. Caller holds mu.
func (p *pct) stop(w int, st int8) {
	if p.state[w] == pctNew {
		p.started++
	} else if p.holder == w {
		p.holder = -1
		if low, ok := p.drops[p.steps]; ok {
			p.prio[w] = low
		}
		p.steps++
	}
	p.state[w] = st
	p.next()
}

// next resumes the ready worker with the highest priority when none runs and
// every worker has called in. Caller holds mu.
func (p *pct) next() {
	if p.holder >= 0 || p.started < len(p.state) {
		return
	}
	for w, s := range p.state {
		if s == pctReady && (p.holder < 0 || p.prio[w] > p.prio[p.holder]) {
			p.holder = w
		}
	}
	if p.holder >= 0 {
		p.resume[p.holder] <- struct{}{}
	}
}

func (p *pct) Yield(w int) {
	p.mu.Lock()
	p.stop(w, pctReady)
	p.mu.Unlock()
	<-p.resume[w]
}

func (p *pct) Park(w int, mu *sync.Mutex) {
	p.mu.Lock()
	if mu == nil {
		p.stop(w, pctGone)
		p.mu.Unlock()
		return
	}
	p.stop(w, pctParked)
	p.mu.Unlock()
	mu.Unlock()
	<-p.resume[w]
	mu.Lock()
}

func (p *pct) Wake() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for w, s := range p.state {
		if s == pctParked {
			p.state[w] = pctReady
		}
	}
	p.next()
}
