package store

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qframan/internal/hessian"
	"qframan/internal/obs"
)

// Store is the on-disk checkpoint/cache. Layout:
//
//	<dir>/manifest.log        append-only write-ahead manifest
//	<dir>/objects/<xx>/<key>  CRC-guarded records, content-addressed by Key
//
// Crash-consistency argument: a `put` manifest line is appended *before*
// the record is written, and the record itself lands via temp-file + fsync
// + atomic rename. A crash therefore leaves one of three states, all safe:
// (a) no line, no object — the fragment is simply recomputed; (b) a line
// but a missing/short object — Open's replay validates each line against
// the object and drops it, requeueing the fragment; (c) line and object —
// the record is served after its CRC verifies on read. No state decodes
// into wrong data, and the manifest is pure bookkeeping: a torn tail or a
// lost line degrades to a recomputation, never to corruption.
//
// Concurrency: one Store may be shared by any number of goroutines — and by
// concurrent scheduler runs of a serving daemon. The index and manifest are
// guarded by s.mu; object files commit via atomic rename, so a reader racing
// a writer sees either no file or a complete record, never a torn one (the
// CRC on every Get backstops the filesystem anyway). SetObs may be called
// concurrently by every run sharing the store: the instruments are atomic
// pointers, re-set idempotently.
type Store struct {
	dir string

	mu       sync.Mutex
	manifest *os.File
	idx      map[Key]*entry
	logical  int // put+ref manifest records across all runs
	replayed int // manifest records replayed at Open

	// Latency instruments; nil until SetObs, atomic because concurrent
	// sched runs sharing the store each attach their scope. Nil-safe to
	// observe. obsOnce makes the first attachment win exactly once.
	obsGet  atomic.Pointer[obs.Histogram]
	obsPut  atomic.Pointer[obs.Histogram]
	obsOnce sync.Once
}

// entry is the in-memory index of one object.
type entry struct {
	natoms int
	bytes  int64
	// prior marks objects that existed when the store was opened — the
	// currency of -resume accounting.
	prior bool
	// fresh marks objects written (or overwritten) by this process, whose
	// bytes this run has vouched for.
	fresh bool
	// writing marks an entry whose object commit is still in flight (WAL
	// line appended, rename pending). A Get that misses the file must not
	// evict such an entry — the rename is about to land — or the
	// manifest-repair path could double-count the racing put.
	writing bool
	refs    int
}

const (
	manifestName   = "manifest.log"
	manifestHeader = "qfstore v1"
	objectsDir     = "objects"
)

// Open opens (creating if needed) a store rooted at dir and replays its
// manifest: every `put` line is validated against the object file (present
// and size-exact — full CRC validation happens on each Get, before any
// byte is trusted); lines that fail validation are dropped so their
// fragments requeue. A torn final line — the signature of a mid-append
// crash — ends the replay without error.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, objectsDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, idx: make(map[Key]*entry)}
	if err := s.replay(); err != nil {
		return nil, err
	}
	s.replayed = s.logical
	f, err := os.OpenFile(filepath.Join(dir, manifestName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.manifest = f
	if st, err := f.Stat(); err == nil && st.Size() == 0 {
		fmt.Fprintln(f, manifestHeader)
	}
	return s, nil
}

// Close releases the manifest handle. Records already written stay valid.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.manifest == nil {
		return nil
	}
	err := s.manifest.Close()
	s.manifest = nil
	return err
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetObs attaches metric instruments: Get/Put latency histograms and a
// counter publishing the manifest records replayed at Open. The first scope
// with a registry wins; later calls — every scheduler run sharing the store
// re-attaches its own scope — are no-ops, so a daemon that attaches its
// process-wide registry at startup keeps store latencies on one stable
// series while per-job labeled scopes come and go. Safe to call
// concurrently; a scope without a registry is a no-op.
func (s *Store) SetObs(sc obs.Scope) {
	if sc.R == nil {
		return
	}
	s.obsOnce.Do(func() {
		s.obsGet.Store(sc.R.Histogram(obs.MetricStoreGetSeconds, obs.DurationBuckets))
		s.obsPut.Store(sc.R.Histogram(obs.MetricStorePutSeconds, obs.DurationBuckets))
		sc.R.Counter(obs.MetricStoreReplayRecs).Add(int64(s.replayed))
	})
}

func (s *Store) replay() error {
	f, err := os.Open(filepath.Join(s.dir, manifestName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == manifestHeader || line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case fields[0] == "put" && len(fields) == 4:
			k, err := ParseKey(fields[1])
			if err != nil {
				return nil // torn tail: stop replay, later lines are unreachable anyway
			}
			natoms, err1 := strconv.Atoi(fields[2])
			size, err2 := strconv.ParseInt(fields[3], 10, 64)
			if err1 != nil || err2 != nil {
				return nil
			}
			s.logical++
			st, err := os.Stat(s.objectPath(k))
			if err != nil || st.Size() != size {
				// WAL intent whose object write never completed (or was
				// truncated): drop it — the fragment will requeue.
				delete(s.idx, k)
				continue
			}
			if e := s.idx[k]; e != nil {
				e.natoms, e.bytes = natoms, size
			} else {
				s.idx[k] = &entry{natoms: natoms, bytes: size, prior: true}
			}
		case fields[0] == "ref" && len(fields) == 2:
			k, err := ParseKey(fields[1])
			if err != nil {
				return nil
			}
			s.logical++
			if e := s.idx[k]; e != nil {
				e.refs++
			}
		default:
			return nil // unknown or torn record: stop replay
		}
	}
	return nil
}

func (s *Store) objectPath(k Key) string {
	hexk := k.String()
	return filepath.Join(s.dir, objectsDir, hexk[:2], hexk)
}

// appendLine writes one manifest record; callers hold s.mu.
func (s *Store) appendLine(line string) error {
	if s.manifest == nil {
		return fmt.Errorf("store: closed")
	}
	_, err := fmt.Fprintln(s.manifest, line)
	return err
}

// Put checkpoints a fragment result under its key: the data is rotated into
// the canonical frame, encoded, logged to the manifest, and written with
// temp-file + fsync + atomic rename. If another fragment of this run
// already wrote the key (a within-run duplicate racing past the dedup
// election), only a `ref` line is appended. The returned data is the
// result as a subsequent Get would serve it — the canonical roundtrip of
// the input — and callers should use it in place of the input so computed
// and cache-served fragments are bit-identical.
func (s *Store) Put(k Key, fr Frame, fd *hessian.FragmentData) (*hessian.FragmentData, error) {
	if h := s.obsPut.Load(); h != nil {
		defer func(t0 time.Time) { h.ObserveDuration(time.Since(t0)) }(time.Now())
	}
	canon, err := fr.ToCanonical(fd)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if e := s.idx[k]; e != nil && e.fresh {
		e.refs++
		s.logical++
		err := s.appendLine("ref " + k.String())
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return fr.FromCanonical(canon)
	}
	s.mu.Unlock()

	blob, err := Encode(canon)
	if err != nil {
		return nil, err
	}
	// The index entry is registered in the same critical section as the
	// manifest append, *before* the object write: once the renamed object is
	// visible to a concurrent Get, the index already knows the key, so the
	// manifest-repair ("adoption") path in Get can never double-count a
	// result that a racing Put is in the middle of committing. A Get landing
	// inside the write window sees entry-without-object and degrades to a
	// clean miss, exactly like a crash between the WAL line and the rename.
	if err := s.registerPut(k, fr.NAtoms, int64(len(blob))); err != nil {
		return nil, err
	}
	if err := s.commitObject(k, blob); err != nil {
		return nil, err
	}
	return fr.FromCanonical(canon)
}

// registerPut appends the WAL line of one put and registers its index entry
// atomically with respect to every other index reader, with the write-in-
// flight marker set; commitObject clears it once the rename lands.
func (s *Store) registerPut(k Key, natoms int, size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.logical++
	if err := s.appendLine(fmt.Sprintf("put %s %d %d", k.String(), natoms, size)); err != nil {
		return err
	}
	prior := false
	if e := s.idx[k]; e != nil {
		prior = e.prior
	}
	s.idx[k] = &entry{natoms: natoms, bytes: size, prior: prior, fresh: true, writing: true}
	return nil
}

// commitObject writes the object and clears the entry's in-flight marker
// whether or not the write succeeded (a failed write leaves an entry whose
// next Get degrades to an evicting miss — the crash-consistency state (b)).
func (s *Store) commitObject(k Key, blob []byte) error {
	err := s.writeObject(k, blob)
	s.mu.Lock()
	if e := s.idx[k]; e != nil {
		e.writing = false
	}
	s.mu.Unlock()
	return err
}

// writeObject lands a record atomically: temp file in the objects tree,
// fsync, rename. The rename is the commit point.
func (s *Store) writeObject(k Key, blob []byte) error {
	path := s.objectPath(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(blob); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Get serves a fragment result from the store, rotated into the caller's
// frame. A clean miss returns (nil, false, nil). A record that fails CRC or
// structural validation is evicted and reported as ErrCorrupt so the caller
// requeues the fragment — corruption is never served. The prior flag
// reports that the record was produced by an earlier run (and not
// re-vouched by this one): resume accounting.
func (s *Store) Get(k Key, fr Frame) (*hessian.FragmentData, bool, error) {
	if h := s.obsGet.Load(); h != nil {
		defer func(t0 time.Time) { h.ObserveDuration(time.Since(t0)) }(time.Now())
	}
	s.mu.Lock()
	e, ok := s.idx[k]
	var prior bool
	if ok {
		prior = e.prior && !e.fresh
	}
	s.mu.Unlock()

	blob, err := os.ReadFile(s.objectPath(k))
	if os.IsNotExist(err) {
		if ok {
			s.evictMissing(k)
		}
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	if !ok {
		// The object exists but the manifest lost it (crash before the
		// line was durable, or an external copy): adopt it as prior after
		// it validates below, and repair the manifest.
		prior = true
	}
	canon, err := Decode(blob)
	if err != nil {
		s.evict(k)
		os.Remove(s.objectPath(k))
		return nil, false, err
	}
	if !ok {
		s.mu.Lock()
		if _, again := s.idx[k]; !again {
			s.idx[k] = &entry{natoms: fr.NAtoms, bytes: int64(len(blob)), prior: true}
			s.logical++
			s.appendLine(fmt.Sprintf("put %s %d %d", k.String(), fr.NAtoms, len(blob)))
		}
		s.mu.Unlock()
	}
	fd, err := fr.FromCanonical(canon)
	if err != nil {
		return nil, false, err
	}
	// Record the serve as a ref so the manifest tallies every logical
	// result the store backed — the numerator of the dedup ratio.
	// Best-effort bookkeeping: a failed append changes no data.
	s.mu.Lock()
	if s.manifest != nil {
		s.logical++
		if e := s.idx[k]; e != nil {
			e.refs++
		}
		s.appendLine("ref " + k.String())
	}
	s.mu.Unlock()
	return fd, prior, nil
}

// GetRaw serves the validated canonical record bytes for k — the peer-fetch
// path of the cluster's tiered cache (DESIGN.md §9): record blobs travel
// CRC-guarded end to end between worker-local stores and the coordinator
// store without a decode/re-encode at each hop. The blob is fully validated
// (magic, CRC, structure) before it is returned; a corrupt object is evicted
// and reported as ErrCorrupt exactly like Get. A clean miss returns
// (nil, false, nil). No ref line is appended: a raw read is peer transport,
// not a logical fragment completion.
func (s *Store) GetRaw(k Key) ([]byte, bool, error) {
	s.mu.Lock()
	_, ok := s.idx[k]
	s.mu.Unlock()
	blob, err := os.ReadFile(s.objectPath(k))
	if os.IsNotExist(err) {
		if ok {
			s.evictMissing(k)
		}
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	if _, err := Decode(blob); err != nil {
		s.evict(k)
		os.Remove(s.objectPath(k))
		return nil, false, err
	}
	return blob, true, nil
}

// PutRaw lands a canonical record blob received from a peer under its key:
// the blob is validated (magic, CRC, structure) before anything is written,
// then committed with the same manifest-line + temp-file + fsync + rename
// discipline as Put. natoms feeds the manifest's size histogram. Unlike Put
// no frame rotation happens — the blob is already in the canonical frame.
func (s *Store) PutRaw(k Key, natoms int, blob []byte) error {
	fd, err := Decode(blob)
	if err != nil {
		return err
	}
	if fd.NumAtoms() != natoms {
		return fmt.Errorf("%w: blob holds %d atoms, manifest claim is %d", ErrCorrupt, fd.NumAtoms(), natoms)
	}
	s.mu.Lock()
	if e := s.idx[k]; e != nil && e.fresh {
		// Already vouched for by this process: record the logical serve only.
		e.refs++
		s.logical++
		err := s.appendLine("ref " + k.String())
		s.mu.Unlock()
		return err
	}
	s.mu.Unlock()
	if err := s.registerPut(k, natoms, int64(len(blob))); err != nil {
		return err
	}
	return s.commitObject(k, blob)
}

func (s *Store) evict(k Key) {
	s.mu.Lock()
	delete(s.idx, k)
	s.mu.Unlock()
}

// evictMissing drops an index entry whose object file is absent — unless the
// entry's object commit is still in flight (the racing put's rename is about
// to make the file appear, so the miss is transient, not damage). The file
// is checked again under the lock: a put whose commit landed after the
// caller's read has cleared writing, and dropping its entry would make the
// next Get adopt the object and count the put twice.
func (s *Store) evictMissing(k Key) {
	s.mu.Lock()
	if e := s.idx[k]; e != nil && !e.writing {
		if _, err := os.Stat(s.objectPath(k)); os.IsNotExist(err) {
			delete(s.idx, k)
		}
	}
	s.mu.Unlock()
}

// Len returns the number of valid objects currently indexed.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx)
}

// Has reports whether an object for k is currently indexed — a cheap
// existence probe (no I/O, no CRC) that a serving frontend uses for
// cross-job dedup accounting before dispatch. The authoritative check stays
// with Get, which validates the record's bytes.
func (s *Store) Has(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx[k] != nil
}

// Stats summarizes store contents for tooling (qfstats -store).
type Stats struct {
	// Objects and Bytes count the physical content-addressed records.
	Objects int
	Bytes   int64
	// Logical counts the results recorded across all runs (manifest put +
	// ref lines): every fragment completion that was backed by the store.
	Logical int
	// DedupRatio is Logical/Objects — how many fragment results each
	// stored record serves on average.
	DedupRatio float64
	// SizeHistogram counts objects by fragment atom count (caps included).
	SizeHistogram map[int]int
}

// Stats computes the current store statistics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Logical: s.logical, SizeHistogram: make(map[int]int)}
	for _, e := range s.idx {
		st.Objects++
		st.Bytes += e.bytes
		st.SizeHistogram[e.natoms]++
	}
	if st.Objects > 0 {
		st.DedupRatio = float64(st.Logical) / float64(st.Objects)
	}
	return st
}

// SortedSizes returns the histogram's atom counts in ascending order, for
// deterministic printing.
func (st Stats) SortedSizes() []int {
	sizes := make([]int, 0, len(st.SizeHistogram))
	for n := range st.SizeHistogram {
		sizes = append(sizes, n)
	}
	sort.Ints(sizes)
	return sizes
}
