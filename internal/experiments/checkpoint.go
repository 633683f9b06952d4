package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/cachesim"
)

// CheckpointRecord is the on-disk form of one completed cell: the
// simulation result plus the scalar Run fields, keyed by Cell.Key(). The
// checkpoint file holds one JSON record per line (JSONL), appended as cells
// complete, so an interrupted sweep keeps everything finished before the
// interruption and a torn final line loses one cell, not the file. Sum
// seals each record against on-disk corruption (see Seal/Verify).
//
// Mapping and Schedule are deliberately not persisted: they are large,
// kernel-pointer-laden artifacts that only topomap's -sched/-code views
// need, and those views recompute. A restored Run therefore carries
// Mapping == nil and Schedule == nil.
type CheckpointRecord struct {
	Key       string           `json:"key"`
	Groups    int              `json:"groups,omitempty"`
	HasDeps   bool             `json:"has_deps,omitempty"`
	MapTimeNS int64            `json:"map_time_ns,omitempty"`
	Sim       *cachesim.Result `json:"sim"`
	// Sum seals the record (see Seal): a checksum over the record's
	// canonical JSON with Sum itself blank. Empty means unsealed.
	Sum string `json:"sum,omitempty"`
}

// RecordForRun flattens a completed run into its checkpoint record. The
// record is unsealed; CheckpointFile.Append seals it on write.
func RecordForRun(key string, run *repro.Run) *CheckpointRecord {
	return &CheckpointRecord{
		Key:       key,
		Groups:    run.Groups,
		HasDeps:   run.HasDeps,
		MapTimeNS: int64(run.MapTime),
		Sim:       run.Sim,
	}
}

// ToRun reconstitutes the memoizable Run for the cell the record was saved
// under. Kernel, machine, scheme and config come from the cell itself — the
// key equality guarantees they denote the same experiment.
func (rec *CheckpointRecord) ToRun(c Cell) *repro.Run {
	return &repro.Run{
		Kernel:  c.Kernel,
		Machine: c.Machine,
		Scheme:  c.Scheme,
		Config:  c.Config,
		Sim:     rec.Sim,
		Groups:  rec.Groups,
		HasDeps: rec.HasDeps,
		MapTime: time.Duration(rec.MapTimeNS),
	}
}

// sum computes the record's checksum: FNV-1a over the canonical JSON
// encoding with the Sum field blank.
func (rec *CheckpointRecord) sum() (string, error) {
	clone := *rec
	clone.Sum = ""
	data, err := json.Marshal(&clone)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(data) //lint:ignore cellboundary hash.Hash.Write never returns an error (hash package contract)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// Seal stamps the record's checksum so a later Verify can detect any
// mutation of its payload, such as a torn or bit-flipped disk write.
func (rec *CheckpointRecord) Seal() error {
	s, err := rec.sum()
	if err != nil {
		return err
	}
	rec.Sum = s
	return nil
}

// Verify checks a sealed record's checksum. Unsealed records (written
// before sealing existed, or deliberately unsealed) verify trivially:
// callers that require the seal check Sum != "" themselves.
func (rec *CheckpointRecord) Verify() error {
	if rec.Sum == "" {
		return nil
	}
	s, err := rec.sum()
	if err != nil {
		return err
	}
	if s != rec.Sum {
		return fmt.Errorf("experiments: checkpoint record %s: checksum %s does not match payload (%s): record corrupted", rec.Key, rec.Sum, s)
	}
	return nil
}

// CheckpointHeader is the first line of every checkpoint file: the grid
// signature of the sweep that produced it plus the module version. A
// resume whose grid or version differs is rejected — restoring cells from
// a different sweep (or a different build of the simulator) would silently
// mix incompatible results into the tables.
type CheckpointHeader struct {
	Header  bool   `json:"header"`
	Grid    string `json:"grid"`
	Version string `json:"version"`
}

// GridSignature hashes the identity of a sweep — whatever strings determine
// which cells it computes and how (kernel set, machine set, schemes, config
// flags, chaos seed) — into the stable token SetCheckpoint stamps into the
// checkpoint header.
func GridSignature(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p)) //lint:ignore cellboundary hash.Hash.Write never returns an error (hash package contract)
		h.Write([]byte{0}) //lint:ignore cellboundary hash.Hash.Write never returns an error (hash package contract)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// BuildVersion identifies the running module build, pinned into checkpoint
// headers so results never mix across builds.
func BuildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// A CheckpointFile is an open checkpoint: the records restored from a
// previous run plus an append handle for new completions. It is the shared
// persistence primitive behind Runner.SetCheckpoint and the topomapd
// server's warm result cache, and it owns an advisory lockfile
// (path + ".lock", holding the owner's pid) for the checkpoint's lifetime:
// a second concurrent open — say a server and a CLI sweep pointed at the
// same file — is rejected instead of silently interleaving appends from
// two processes. A lock whose owner is no longer running (crash residue)
// is stolen automatically.
type CheckpointFile struct {
	path string

	mu        sync.Mutex
	f         *os.File
	restored  map[string]*CheckpointRecord
	appendErr error
	unlock    func() error
}

// OpenCheckpoint opens a checkpoint file for restore + append: any records
// already present are loaded (keyed by Cell.Key()) and every record passed
// to Append from now on lands at the end of the file. Call Close when done;
// the advisory lock is held until then.
//
// grid is the sweep's identity signature (see GridSignature). A new file
// is stamped with it; an existing file must carry a matching header, and a
// mismatch — a checkpoint written by a different sweep, an older headerless
// format, or a different module version — is rejected with a descriptive
// error instead of silently reusing foreign cells.
//
// The load tolerates a torn final line — the signature a crash or SIGKILL
// leaves when it lands mid-append — by skipping it with a stderr warning;
// the cell it held is simply recomputed. Earlier undecodable or
// checksum-failing lines are skipped the same way, each with its own
// warning, so one corrupted record costs one cell, never the resume.
func OpenCheckpoint(path, grid string) (*CheckpointFile, error) {
	unlock, err := lockCheckpoint(path)
	if err != nil {
		return nil, err
	}
	cf, err := openLockedCheckpoint(path, grid)
	if err != nil {
		_ = unlock() // the open error is the one worth reporting
		return nil, err
	}
	cf.unlock = unlock
	return cf, nil
}

// openLockedCheckpoint loads and validates the checkpoint body; the caller
// already holds the lockfile.
func openLockedCheckpoint(path, grid string) (*CheckpointFile, error) {
	version := BuildVersion()
	restored := make(map[string]*CheckpointRecord)
	needHeader := true
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		lines := bytes.Split(data, []byte("\n"))
		// Find the first non-blank line: it must be a matching header.
		first := -1
		for i, line := range lines {
			if len(bytes.TrimSpace(line)) > 0 {
				first = i
				break
			}
		}
		if first >= 0 {
			hdr := &CheckpointHeader{}
			if json.Unmarshal(bytes.TrimSpace(lines[first]), hdr) != nil || !hdr.Header {
				return nil, fmt.Errorf("experiments: checkpoint %s has no header record: written by a pre-header version or not a checkpoint; delete it (or point -checkpoint elsewhere) to start fresh", path)
			}
			if hdr.Grid != grid {
				return nil, fmt.Errorf("experiments: checkpoint %s was written by a different sweep (grid %s, this sweep is %s): refusing to reuse its cells; delete it or point -checkpoint elsewhere", path, hdr.Grid, grid)
			}
			if hdr.Version != version {
				return nil, fmt.Errorf("experiments: checkpoint %s was written by module version %q, this build is %q: refusing to mix results across builds; delete it or point -checkpoint elsewhere", path, hdr.Version, version)
			}
			needHeader = false
			last := lastNonBlank(lines)
			for i, line := range lines[first+1:] {
				line = bytes.TrimSpace(line)
				if len(line) == 0 {
					continue
				}
				rec := &CheckpointRecord{}
				if derr := json.Unmarshal(line, rec); derr != nil || rec.Key == "" || rec.Sim == nil {
					warnSkippedRecord(path, first+1+i, first+1+i == last, "undecodable")
					continue
				}
				if verr := rec.Verify(); verr != nil {
					warnSkippedRecord(path, first+1+i, first+1+i == last, "checksum mismatch")
					continue
				}
				restored[rec.Key] = rec
			}
		}
	case errors.Is(err, os.ErrNotExist):
		// First run: nothing to restore.
	default:
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if needHeader {
		hdr, merr := json.Marshal(&CheckpointHeader{Header: true, Grid: grid, Version: version})
		if merr == nil {
			_, merr = f.Write(append(hdr, '\n'))
		}
		if merr != nil {
			_ = f.Close() // the header write error is the one worth reporting
			return nil, fmt.Errorf("experiments: checkpoint %s: writing header: %w", path, merr)
		}
	}
	return &CheckpointFile{path: path, f: f, restored: restored}, nil
}

// lockCheckpoint takes the checkpoint's advisory lockfile (path + ".lock",
// exclusive create, owner pid inside) and returns the release func. A lock
// held by a live process is a hard error; a stale lock — its owner's pid no
// longer runs — is stolen with one retry.
func lockCheckpoint(path string) (func() error, error) {
	lock := path + ".lock"
	for attempt := 0; attempt < 2; attempt++ {
		f, err := os.OpenFile(lock, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			_, werr := fmt.Fprintf(f, "%d\n", os.Getpid())
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				_ = os.Remove(lock) // the write error is the one worth reporting
				return nil, fmt.Errorf("experiments: checkpoint %s: writing lockfile: %w", path, werr)
			}
			return func() error { return os.Remove(lock) }, nil
		}
		if !errors.Is(err, os.ErrExist) {
			return nil, err
		}
		data, rerr := os.ReadFile(lock)
		if rerr != nil {
			if errors.Is(rerr, os.ErrNotExist) {
				continue // holder released between our create and read; retry
			}
			return nil, rerr
		}
		pid, perr := strconv.Atoi(strings.TrimSpace(string(data)))
		if perr == nil && pid > 0 && processAlive(pid) {
			return nil, fmt.Errorf("experiments: checkpoint %s is locked by running process %d (lockfile %s): refusing the concurrent open — two writers (say a topomapd server and a CLI sweep) would interleave appends; stop the other process or point the checkpoint elsewhere", path, pid, lock)
		}
		// Stale: the owner crashed before releasing (or the lockfile is
		// garbage). Steal it and retry the exclusive create once.
		if rmerr := os.Remove(lock); rmerr != nil && !errors.Is(rmerr, os.ErrNotExist) {
			return nil, rmerr
		}
	}
	return nil, fmt.Errorf("experiments: checkpoint %s: lockfile %s contested: could not acquire after stealing a stale lock", path, lock)
}

// processAlive reports whether pid names a currently running process, by
// signal-0 probe. A permission error still means "running" (someone else's
// process holds the lock).
func processAlive(pid int) bool {
	if pid == os.Getpid() {
		return true
	}
	p, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	err = p.Signal(syscall.Signal(0))
	if err == nil {
		return true
	}
	if errors.Is(err, os.ErrProcessDone) || errors.Is(err, syscall.ESRCH) {
		return false
	}
	return true
}

// Len reports the number of restored records.
func (c *CheckpointFile) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.restored)
}

// Lookup returns the restored record for a key, if any.
func (c *CheckpointFile) Lookup(key string) (*CheckpointRecord, bool) {
	c.mu.Lock()
	rec, ok := c.restored[key]
	c.mu.Unlock()
	return rec, ok
}

// Restored returns the restored records sorted by key (deterministic order
// for warm-start loops).
func (c *CheckpointFile) Restored() []*CheckpointRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.restored))
	for k := range c.restored {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	recs := make([]*CheckpointRecord, len(keys))
	for i, k := range keys {
		recs[i] = c.restored[k]
	}
	return recs
}

// Append persists one checkpoint record crash-safely: the record is sealed,
// marshaled with its trailing newline into one buffer, written with a
// single write call and flushed to stable storage, so a crash between
// records never interleaves partial lines and a crash mid-write tears at
// most the final line — which the resume path skips and recomputes. Append
// failures do not fail the cell — the result is still correct in memory —
// but the first one is remembered and surfaced by Close.
func (c *CheckpointFile) Append(rec *CheckpointRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return
	}
	err := rec.Seal()
	var data []byte
	if err == nil {
		data, err = json.Marshal(rec)
	}
	if err == nil {
		data = append(data, '\n')
		_, err = c.f.Write(data)
	}
	if err == nil {
		err = c.f.Sync()
	}
	if err != nil && c.appendErr == nil {
		c.appendErr = err
	}
}

// Close closes the checkpoint, releases its lockfile, and reports the first
// append error encountered while it was open, if any. Idempotent.
func (c *CheckpointFile) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.appendErr
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	if c.unlock != nil {
		if uerr := c.unlock(); err == nil {
			err = uerr
		}
		c.unlock = nil
	}
	c.f = nil
	c.restored = nil
	c.appendErr = nil
	return err
}

// SetCheckpoint enables checkpoint/resume against the given JSONL file: any
// records already present are loaded and served in place of recomputation
// (keyed by Cell.Key()), and every cell completed from now on is appended
// as it lands. It returns the number of restored cells. Errors are never
// checkpointed, so failed or budget-aborted cells are retried by the next
// run. Call CloseCheckpoint when the sweep ends. See OpenCheckpoint for the
// header validation, corruption tolerance and concurrent-open locking this
// inherits.
func (r *Runner) SetCheckpoint(path, grid string) (int, error) {
	r.ckptMu.Lock()
	defer r.ckptMu.Unlock()
	if r.ckpt != nil {
		return 0, errors.New("experiments: checkpoint already configured")
	}
	cf, err := OpenCheckpoint(path, grid)
	if err != nil {
		return 0, err
	}
	r.ckpt = cf
	return cf.Len(), nil
}

// lastNonBlank returns the index of the last line holding any content —
// the only line a mid-append crash can tear.
func lastNonBlank(lines [][]byte) int {
	for i := len(lines) - 1; i >= 0; i-- {
		if len(bytes.TrimSpace(lines[i])) > 0 {
			return i
		}
	}
	return -1
}

// warnSkippedRecord reports one skipped checkpoint line on stderr. A torn
// final line is the expected residue of a crash mid-append and says so; an
// interior bad line is more surprising but costs the same: that one cell is
// recomputed.
func warnSkippedRecord(path string, line int, final bool, why string) {
	kind := "corrupted record"
	if final {
		kind = "torn final record (crash mid-append?)"
	}
	//lint:ignore cellboundary best-effort stderr diagnostic; a skipped checkpoint line must degrade to one recomputed cell, never fail the resume
	fmt.Fprintf(os.Stderr, "experiments: checkpoint %s line %d: skipping %s (%s); that cell will be recomputed\n", path, line+1, kind, why)
}

// CloseCheckpoint closes the checkpoint file, releases its lockfile, and
// reports the first append error encountered while the sweep ran, if any. A
// no-op when no checkpoint was configured.
func (r *Runner) CloseCheckpoint() error {
	r.ckptMu.Lock()
	defer r.ckptMu.Unlock()
	if r.ckpt == nil {
		return nil
	}
	err := r.ckpt.Close()
	r.ckpt = nil
	return err
}

// checkpoint returns the configured checkpoint, if any.
func (r *Runner) checkpoint() *CheckpointFile {
	r.ckptMu.Lock()
	cf := r.ckpt
	r.ckptMu.Unlock()
	return cf
}

// restoredRecord returns the checkpointed record for a key, if any.
func (r *Runner) restoredRecord(key string) (*CheckpointRecord, bool) {
	cf := r.checkpoint()
	if cf == nil {
		return nil, false
	}
	return cf.Lookup(key)
}

// appendCheckpoint persists one completed cell, if a checkpoint is
// configured. See CheckpointFile.Append for the crash-safety contract.
func (r *Runner) appendCheckpoint(key string, run *repro.Run) {
	if cf := r.checkpoint(); cf != nil {
		cf.Append(RecordForRun(key, run))
	}
}
