package search

// boundedQueue is the modified priority queue of Section 4.6: level i of
// the search lattice (states with i attributes assigned) holds at most
// max(1, ϱ − i + 1) states. A full level accepts a new state only if it is
// not worse than the level's worst state, which it then evicts. Polling
// returns the globally cheapest state; ties go to states with more
// assignments. Duplicate assignment sets are rejected once seen.
type boundedQueue struct {
	width   int // ϱ
	levels  map[int][]*State
	visited map[string]bool
	size    int
}

func newQueue(width int) *boundedQueue {
	if width < 1 {
		width = 1
	}
	return &boundedQueue{
		width:   width,
		levels:  make(map[int][]*State),
		visited: make(map[string]bool),
	}
}

// capacity returns the level bound max(1, ϱ − i + 1).
func (q *boundedQueue) capacity(level int) int {
	c := q.width - level + 1
	if c < 1 {
		c = 1
	}
	return c
}

// Add offers a state to the queue. admitted reports whether the state
// entered the queue; evicted reports whether admission displaced a queued
// state from a full level (so net queue occupancy only grew when admitted
// && !evicted). Rejections — duplicates, or states worse than every state
// of a full level — return false, false.
func (q *boundedQueue) Add(s *State) (admitted, evicted bool) {
	key := s.Key()
	if q.visited[key] {
		return false, false
	}
	q.visited[key] = true
	lv := q.levels[s.level]
	if len(lv) < q.capacity(s.level) {
		q.levels[s.level] = append(lv, s)
		q.size++
		return true, false
	}
	worst := 0
	for i := 1; i < len(lv); i++ {
		if lv[i].cost > lv[worst].cost {
			worst = i
		}
	}
	if s.cost > lv[worst].cost {
		return false, false
	}
	lv[worst] = s
	return true, true
}

// Poll removes and returns the cheapest state; nil when empty. Ties go to
// the state with more assignments, then to the lexicographically smaller
// assignment key, so polling is fully deterministic.
func (q *boundedQueue) Poll() *State {
	var best *State
	bestLevel := -1
	//affidavit:ordered argmin with a total tie-break (cost, level, assignment key); the polled state is independent of visit order
	for level, lv := range q.levels {
		for _, s := range lv {
			if best == nil || s.cost < best.cost ||
				(s.cost == best.cost && (s.level > best.level ||
					(s.level == best.level && s.key < best.key))) {
				best = s
				bestLevel = level
			}
		}
	}
	if best == nil {
		return nil
	}
	lv := q.levels[bestLevel]
	for i, s := range lv {
		if s == best {
			lv[i] = lv[len(lv)-1]
			q.levels[bestLevel] = lv[:len(lv)-1]
			break
		}
	}
	if len(q.levels[bestLevel]) == 0 {
		delete(q.levels, bestLevel)
	}
	q.size--
	return best
}

// Len returns the number of queued states.
func (q *boundedQueue) Len() int { return q.size }

// Seen reports whether a state with this key was ever admitted or offered.
func (q *boundedQueue) Seen(key string) bool { return q.visited[key] }
