package engine

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"phasetune/internal/fsutil"
	"phasetune/internal/obsv"
)

// The durability layer: every committed session operation is appended
// to a per-session write-ahead journal (one JSON record per line,
// fsync'd before the caller sees the result), and that append-only
// file is the session's whole durable history. Because sessions are
// bit-for-bit deterministic — the property the observation-log
// regression test locks in — recovery is redo replay: re-issuing the
// recorded Next/Observe sequence against a fresh strategy reconstructs
// the exact in-memory state, and the recorded observations double as
// an integrity check (a replayed observation that does not reproduce
// bit-identically means the journal and the binary disagree).
// GP-discontinuous refits on the whole observation history, so replay
// needs every record and no compaction could drop one.
//
// Record grammar (field presence by type):
//
//	{"t":"create","config":{...}}                     first record of a fresh journal
//	{"t":"step","seq":N,"epoch":E,"iter":I,
//	 "actions":[a],"sims":[x],"obs":[d],
//	 "hits":[b],"key":"..."}                          one committed sequential step
//	{"t":"batch","seq":N,"epoch":E,"iter":I,"k":K,
//	 "actions":[...],"lies":[...],"sims":[...],
//	 "obs":[...],"hits":[...],"key":"..."}            one committed speculative batch
//	{"t":"abort","seq":N,"epoch":E,
//	 "actions":[...],"lies":[...]}                    a step or batch whose evaluation failed:
//	                                                  the strategy consumed Next/lie calls
//	                                                  but no observation was committed
//	{"t":"spropose","seq":N,"epoch":E,"k":K,
//	 "actions":[...],"lies":[...],"key":"..."}        a streaming batch's proposals, durable
//	                                                  before any evaluation runs; followed by
//	                                                  0..len(actions) scommit records (fewer
//	                                                  than len(actions) means the stream
//	                                                  failed or crashed mid-flight — the
//	                                                  uncommitted suffix aborts implicitly)
//	{"t":"scommit","seq":N,"epoch":E,"iter":I,
//	 "actions":[a],"sims":[x],"obs":[d],"hits":[b]}   one streamed step, committed in
//	                                                  proposal order as its evaluation landed
//	{"t":"epoch","seq":N,"epoch":E,"key":"..."}       platform epoch advance
//	{"t":"gen","seq":N,"gen":G}                       fencing-token bump: the session was
//	                                                  promoted onto this node at generation G;
//	                                                  replication from any older generation
//	                                                  is rejected from this record on
//
// The one commit path (commit.go) writes the operation records in two
// shapes. Step and batch-step are atomic: one step or batch record, or
// one abort record if any evaluation failed. Stream-step writes
// spropose first and then one scommit per step in proposal order.
// Step and batch keep a single record because every record is an fsync
// and a replica round-trip before the caller sees its result; the
// per-step form buys a stream its early delivery, which an atomic
// operation cannot use.
//
// key is the client's idempotency key when the committing request
// carried one (absent otherwise); hits are the per-step cache-hit
// flags and k the requested batch width, both journaled so a replayed
// response reproduces the original byte-for-byte — including across a
// crash and recovery. Aborts never carry keys: a failed operation
// commits nothing, so a retry under the same key re-attempts.
//
// v is the journal format version, carried on the create record
// (absent on v1 journals, which predate replication); gen is the
// session's generation (fencing token), stamped on every record so a
// replica can reject appends from a deposed owner. Both fields are
// omitempty, so v1 journals replay unchanged.
//
// Torn tails are expected: a crash mid-append leaves a partial final
// line, which recovery drops (the operation never committed). A
// malformed record anywhere else is corruption and fails recovery.
//
// Earlier binaries also compacted the journal into <id>.snap.json and
// truncated it. Those snapshot files are still read (see
// loadSessionState) but never written.
type journalRecord struct {
	T       string         `json:"t"`
	V       int            `json:"v,omitempty"`
	Seq     int64          `json:"seq,omitempty"`
	Gen     uint64         `json:"gen,omitempty"`
	Config  *journalConfig `json:"config,omitempty"`
	Epoch   int            `json:"epoch,omitempty"`
	Iter    int            `json:"iter,omitempty"`
	K       int            `json:"k,omitempty"`
	Actions []int          `json:"actions,omitempty"`
	Lies    []float64      `json:"lies,omitempty"`
	Sims    []float64      `json:"sims,omitempty"`
	Obs     []float64      `json:"obs,omitempty"`
	Hits    []bool         `json:"hits,omitempty"`
	Key     string         `json:"key,omitempty"`
}

// journalFormatVersion is the version stamped on fresh create records.
// v2 added the generation (fencing) field and the "gen" record type;
// v1 journals (no version field) replay unchanged, and a journal from a
// future version fails recovery instead of being misread.
const journalFormatVersion = 2

// journalConfig is the durable form of a SessionConfig. Only
// key-addressable scenarios can be journaled (an explicit
// platform.Scenario has no stable name to re-resolve at recovery).
type journalConfig struct {
	ScenarioKey string `json:"scenario_key"`
	Strategy    string `json:"strategy"`
	Seed        int64  `json:"seed"`
	Tiles       int    `json:"tiles,omitempty"`
	Exact       bool   `json:"exact,omitempty"`
	GenNodes    int    `json:"gen_nodes,omitempty"`
}

func (c journalConfig) sessionConfig() SessionConfig {
	return SessionConfig{
		ScenarioKey: c.ScenarioKey,
		Strategy:    c.Strategy,
		Seed:        c.Seed,
		Tiles:       c.Tiles,
		Exact:       c.Exact,
		GenNodes:    c.GenNodes,
	}
}

// snapshotFile is the compaction of a journal that earlier binaries
// wrote beside it: the session config plus the full operation history
// through Seq, after which they truncated the journal. A data directory
// they left holds that history nowhere else, so recovery still reads
// it; nothing writes one any more.
type snapshotFile struct {
	ID     string          `json:"id"`
	Config journalConfig   `json:"config"`
	Seq    int64           `json:"seq"`
	Gen    uint64          `json:"gen,omitempty"`
	Ops    []journalRecord `json:"ops"`
}

// journal owns one session's journal file. All methods are called
// under the owning session's mutex, so the journal itself needs no
// lock.
type journal struct {
	id  string
	cfg journalConfig
	f   *os.File
	seq int64
	gen uint64          // fencing token stamped on every appended record
	ops []journalRecord // full op history, shipped whole on a follower resync
	tel *obsv.Telemetry // nil disables append accounting
}

func journalPath(dir, id string) string  { return filepath.Join(dir, id+".journal") }
func snapshotPath(dir, id string) string { return filepath.Join(dir, id+".snap.json") }

// newJournal starts a fresh journal for a new session: the file is
// created (truncating any stale leftover under the same ID), the create
// record is appended, a snapshot an earlier binary left under the same
// ID is removed (recovery would read it ahead of the new journal), and
// the directory is synced before the session is considered durable.
// gen seeds the fencing token stamped on every record (fresh sessions
// start at 1).
func newJournal(dir, id string, cfg journalConfig, gen uint64, tel *obsv.Telemetry) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: journal dir: %w", err)
	}
	f, err := os.OpenFile(journalPath(dir, id), os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("engine: open journal: %w", err)
	}
	j := &journal{id: id, cfg: cfg, f: f, gen: gen, tel: tel}
	if err := j.writeRecord(j.createRecord()); err != nil {
		_ = f.Close()
		return nil, err
	}
	if err := os.Remove(snapshotPath(dir, id)); err != nil && !os.IsNotExist(err) {
		_ = f.Close()
		return nil, fmt.Errorf("engine: drop stale snapshot for %s: %w", id, err)
	}
	if err := fsutil.SyncDir(dir); err != nil {
		_ = f.Close()
		return nil, err
	}
	return j, nil
}

// createRecord builds the first record of a fresh journal. It is the
// one place the format version is stamped, so replicas that mirror the
// create record byte-for-byte inherit the version too.
func (j *journal) createRecord() journalRecord {
	cfg := j.cfg
	return journalRecord{T: "create", V: journalFormatVersion, Gen: j.gen, Config: &cfg}
}

// writeRecord marshals, appends and fsyncs one line.
func (j *journal) writeRecord(rec journalRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("engine: encode journal record: %w", err)
	}
	if _, err := j.f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("engine: append journal %s: %w", j.id, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("engine: fsync journal %s: %w", j.id, err)
	}
	return nil
}

// append journals one committed operation, assigning it the next
// sequence number.
func (j *journal) append(rec journalRecord) error {
	rec.Seq = j.seq + 1
	rec.Gen = j.gen
	var t0 int64
	if j.tel != nil {
		t0 = j.tel.Now()
	}
	if err := j.writeRecord(rec); err != nil {
		return err
	}
	if j.tel != nil {
		j.tel.JournalAppend.Observe(j.tel.Seconds(t0))
	}
	j.seq++
	j.ops = append(j.ops, rec)
	return nil
}

// close closes the journal file. Every record is already fsync'd, so
// there is nothing to flush.
func (j *journal) close() error {
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("engine: close journal %s: %w", j.id, err)
	}
	return nil
}

// sessionState is one session's durable state as read back from disk.
type sessionState struct {
	id  string
	cfg journalConfig
	ops []journalRecord
	seq int64
	// gen is the highest generation (fencing token) seen across the
	// snapshot and journal records; zero for v1 journals, which recover
	// as generation 1.
	gen uint64
}

// loadSessionState reads a session's journal, tolerating a torn final
// line. A snapshot file left by an earlier binary comes first: it holds
// the history that binary truncated from the journal, so the journal
// then starts after it (or repeats its last records, when that binary
// crashed between writing the snapshot and truncating).
func loadSessionState(dir, id string) (*sessionState, error) {
	st := &sessionState{id: id}
	haveConfig := false

	if data, err := os.ReadFile(snapshotPath(dir, id)); err == nil {
		var snap snapshotFile
		if err := json.Unmarshal(data, &snap); err != nil {
			return nil, fmt.Errorf("engine: corrupt snapshot for %s: %w", id, err)
		}
		if snap.ID != id {
			return nil, fmt.Errorf("engine: snapshot for %s names session %q", id, snap.ID)
		}
		st.cfg, st.ops, st.seq = snap.Config, snap.Ops, snap.Seq
		st.gen = snap.Gen
		haveConfig = true
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("engine: read snapshot for %s: %w", id, err)
	}

	f, err := os.Open(journalPath(dir, id))
	if os.IsNotExist(err) {
		if !haveConfig {
			return nil, fmt.Errorf("engine: session %s has neither snapshot nor journal", id)
		}
		return st, nil
	}
	if err != nil {
		return nil, fmt.Errorf("engine: open journal for %s: %w", id, err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var lines []string
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("engine: read journal for %s: %w", id, err)
	}

	for i, line := range lines {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			if i == len(lines)-1 {
				break // torn tail: the op never committed
			}
			return nil, fmt.Errorf("engine: corrupt journal record %d for %s: %w", i, id, err)
		}
		if rec.Gen > st.gen {
			st.gen = rec.Gen
		}
		switch {
		case rec.T == "create":
			if rec.V > journalFormatVersion {
				return nil, fmt.Errorf("engine: journal for %s is format v%d; this binary reads up to v%d",
					id, rec.V, journalFormatVersion)
			}
			if !haveConfig {
				st.cfg = *rec.Config
				haveConfig = true
			}
		case rec.Seq <= st.seq:
			// Already captured by the snapshot (an earlier binary crashed
			// between writing it and truncating the journal).
		case rec.Seq == st.seq+1:
			st.ops = append(st.ops, rec)
			st.seq = rec.Seq
		default:
			return nil, fmt.Errorf("engine: journal gap for %s: have seq %d, record %d",
				id, st.seq, rec.Seq)
		}
	}
	if !haveConfig {
		return nil, fmt.Errorf("engine: no create record or snapshot for %s", id)
	}
	return st, nil
}

// reopenJournal attaches a recovered session back to its on-disk
// journal for continued appends.
func reopenJournal(dir string, st *sessionState, tel *obsv.Telemetry) (*journal, error) {
	f, err := os.OpenFile(journalPath(dir, st.id), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("engine: reopen journal %s: %w", st.id, err)
	}
	gen := st.gen
	if gen == 0 {
		gen = 1 // v1 journals predate fencing; recover as generation 1
	}
	return &journal{id: st.id, cfg: st.cfg, f: f, seq: st.seq, gen: gen, ops: st.ops, tel: tel}, nil
}

// listSessionIDs scans a journal directory for session IDs, in stable
// numeric order (s1, s2, ..., s10).
func listSessionIDs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("engine: read journal dir: %w", err)
	}
	seen := map[string]bool{}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		var id string
		switch {
		case strings.HasSuffix(name, ".journal"):
			id = strings.TrimSuffix(name, ".journal")
		case strings.HasSuffix(name, ".snap.json"):
			id = strings.TrimSuffix(name, ".snap.json")
		default:
			continue
		}
		if id != "" && !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		ni, iok := sessionNum(ids[i])
		nj, jok := sessionNum(ids[j])
		if iok && jok {
			return ni < nj
		}
		return ids[i] < ids[j]
	})
	return ids, nil
}

// sessionNum extracts the numeric part of an engine-assigned session ID
// ("s17" -> 17).
func sessionNum(id string) (int, bool) {
	if !strings.HasPrefix(id, "s") {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
