package engine

import (
	"bytes"
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
// file is the session's whole durable history — and its only copy: no
// descriptor or record is kept between commits (see appendRecords),
// and a follower resync reads the history back from disk. Because
// sessions are bit-for-bit deterministic — the property the
// observation-log regression test locks in — recovery is redo replay:
// re-issuing the recorded Next/Observe sequence against a fresh
// strategy reconstructs the exact in-memory state, and the recorded
// observations double as an integrity check (a replayed observation
// that does not reproduce bit-identically means the journal and the
// binary disagree).
// GP-discontinuous refits on the whole observation history (every
// strategy model: models 2 and 3 condense it into per-action means), so
// replay needs every record and no compaction could drop one.
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
//	 "actions":[...],"lies":[...],"key":"..."}        a streaming batch's proposals, in the
//	                                                  same append as its first scommit (alone
//	                                                  if its first evaluation failed); followed
//	                                                  by 0..len(actions) scommit records (fewer
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
// shapes, each as a sequence of commit groups: one append (one write,
// one fsync) and one replica ship per group, whatever its record count.
// Step and batch-step are atomic, one group of one record: a step or
// batch record, or an abort record if any evaluation failed.
// Stream-step writes spropose first and then one scommit per step in
// proposal order; its first group holds spropose and the scommits of
// every evaluation that had landed in order, and each later group the
// next run of landed ones. A crash can therefore tear a group: the
// intact lines before the torn one are a prefix the live stream would
// have produced had it failed there, so recovery replays them as it
// does any spropose with fewer scommits than proposals.
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
// omitempty, so v1 journals replay unchanged. The create record's
// config carries the session's strategy model (v3; see freshModel):
// fresh sessions write "model":3, journals written before model 3 name
// model 2, and a config without a model, as every v1 and v2 journal
// has, means model 1. A new model needs no new format version: a
// binary that does not know a journal's model refuses it in
// buildSession.
//
// Torn tails are expected: a crash mid-append leaves a partial final
// line, which recovery drops (the operation never committed) and then
// cuts from the file, so the next record starts on a line of its own.
// A malformed record anywhere else is corruption and fails recovery.
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
// v2 added the generation (fencing) field and the "gen" record type; v3
// added the strategy model to the config. v1 and v2 journals replay
// unchanged, and a journal from a future version fails recovery instead
// of being misread: a binary that reads up to v2 refuses a model-2 or
// model-3 journal rather than replay it in model 1.
const journalFormatVersion = 3

// journalConfig is the durable form of a SessionConfig, with the
// strategy resolved: the config a Session records, and the one its
// journal's create record carries. Only key-addressable scenarios can
// be journaled (an explicit platform.Scenario has no stable name to
// re-resolve at recovery).
type journalConfig struct {
	ScenarioKey string `json:"scenario_key"`
	Strategy    string `json:"strategy"`
	Seed        int64  `json:"seed"`
	Tiles       int    `json:"tiles,omitempty"`
	Exact       bool   `json:"exact,omitempty"`
	GenNodes    int    `json:"gen_nodes,omitempty"`
	// Model is the strategy model (freshModel for new sessions; 2 in
	// journals written before model 3); 0, as journals written before
	// model 2 read back, means model 1.
	Model int `json:"model,omitempty"`
}

// sameRequest reports whether two configs answer the same create
// request. The engine picks the model, not the client, so a repeated
// create of a session restored in model 1 replays it.
func (c journalConfig) sameRequest(o journalConfig) bool {
	c.Model, o.Model = 0, 0
	return c == o
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

// journal is where one session's journal file lives and what its next
// record carries; it holds no descriptor, no records and no config (the
// create record is built from the session's own). All methods are
// called under the owning session's mutex, so the journal itself needs
// no lock.
type journal struct {
	dir string
	id  string
	seq int64
	// gen is the session's generation (fencing token), stamped on every
	// record: fresh sessions start at 1, each promotion bumps it, and
	// replicas refuse appends from an older one, which fences a deposed
	// owner out after failover.
	gen uint64
	tel *obsv.Telemetry // nil disables append accounting
}

func journalPath(dir, id string) string  { return filepath.Join(dir, id+".journal") }
func snapshotPath(dir, id string) string { return filepath.Join(dir, id+".snap.json") }

// appendRecords is the one writer of session logs, for the owner's
// journal and the follower's replica alike: it opens <dir>/<id>.journal,
// writes recs as lines in a single write, fsyncs and closes the file,
// so no descriptor outlives the call. A batch that starts with a create
// record starts the log afresh: the file is created or truncated, and
// the directory is synced so its entry is durable too.
func appendRecords(dir, id string, recs []journalRecord) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("engine: encode journal record: %w", err)
		}
	}
	fresh := recs[0].T == "create"
	flags := os.O_WRONLY | os.O_CREATE | os.O_APPEND
	if fresh {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("engine: journal dir: %w", err)
		}
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(journalPath(dir, id), flags, 0o644)
	if err != nil {
		return fmt.Errorf("engine: open journal %s: %w", id, err)
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		_ = f.Close()
		return fmt.Errorf("engine: append journal %s: %w", id, err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("engine: fsync journal %s: %w", id, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("engine: close journal %s: %w", id, err)
	}
	if fresh {
		return fsutil.SyncDir(dir)
	}
	return nil
}

// newJournal starts a fresh journal for a new session at generation 1:
// the create record starts a new file (truncating any stale leftover
// under the same ID), and a snapshot an earlier binary left under the
// same ID is removed, durably, before the session is considered
// durable (recovery would read it ahead of the new journal).
func newJournal(dir, id string, cfg journalConfig, tel *obsv.Telemetry) (*journal, error) {
	j := &journal{dir: dir, id: id, gen: 1, tel: tel}
	if err := appendRecords(dir, id, []journalRecord{createRecord(cfg, j.gen)}); err != nil {
		return nil, err
	}
	if err := os.Remove(snapshotPath(dir, id)); err == nil {
		if err := fsutil.SyncDir(dir); err != nil {
			return nil, err
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("engine: drop stale snapshot for %s: %w", id, err)
	}
	return j, nil
}

// createRecord builds the first record of a fresh journal. It is the
// one place the format version is stamped, so replicas that mirror the
// create record byte-for-byte inherit the version too.
func createRecord(cfg journalConfig, gen uint64) journalRecord {
	return journalRecord{T: "create", V: journalFormatVersion, Gen: gen, Config: &cfg}
}

// append journals recs, one commit group, in a single appendRecords
// call (one write, one fsync): it stamps them in place with the next
// sequence numbers and the journal's generation, so the caller ships
// them as written.
func (j *journal) append(recs []journalRecord) error {
	for i := range recs {
		recs[i].Seq = j.seq + int64(i) + 1
		recs[i].Gen = j.gen
	}
	var t0 int64
	if j.tel != nil {
		t0 = j.tel.Now()
	}
	if err := appendRecords(j.dir, j.id, recs); err != nil {
		return err
	}
	if j.tel != nil {
		j.tel.JournalAppend.Observe(j.tel.Seconds(t0))
	}
	j.seq += int64(len(recs))
	return nil
}

// history reads the session's whole history back from disk, as a
// follower resync ships it: the create record of cfg, the session's
// config, then every operation (a legacy snapshot's first).
func (j *journal) history(cfg journalConfig) ([]journalRecord, error) {
	st, err := loadSessionState(j.dir, j.id)
	if err != nil {
		return nil, err
	}
	return append([]journalRecord{createRecord(cfg, j.gen)}, st.ops...), nil
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
	// intact is the byte length of the journal's intact prefix: every
	// line that parses and ends in a newline. size is the file's length;
	// a longer file has a torn tail, which restoreSession cuts before
	// the next append.
	intact, size int64
}

// loadSessionState reads a session's journal, tolerating a torn final
// line: one that does not parse or does not end in a newline, which is
// dropped and left outside the intact prefix. A snapshot file left by
// an earlier binary comes first: it holds the history that binary
// truncated from the journal, so the journal then starts after it (or
// repeats its last records, when that binary crashed between writing
// the snapshot and truncating).
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

	data, err := os.ReadFile(journalPath(dir, id))
	if os.IsNotExist(err) {
		if !haveConfig {
			return nil, fmt.Errorf("engine: session %s has neither snapshot nor journal", id)
		}
		return st, nil
	}
	if err != nil {
		return nil, fmt.Errorf("engine: read journal for %s: %w", id, err)
	}
	st.size = int64(len(data))

	lines := bytes.SplitAfter(data, []byte("\n"))
	last := len(lines) - 1 // the last non-blank line, the only one that may be torn
	for last >= 0 && len(bytes.TrimSpace(lines[last])) == 0 {
		last--
	}
	i := 0 // record index, counting non-blank lines
	for n, raw := range lines[:last+1] {
		line := bytes.TrimSpace(raw)
		if len(line) == 0 {
			st.intact += int64(len(raw))
			continue
		}
		var rec journalRecord
		err := json.Unmarshal(line, &rec)
		if n == last && (err != nil || raw[len(raw)-1] != '\n') {
			break // torn tail: the op never committed
		}
		if err != nil {
			return nil, fmt.Errorf("engine: corrupt journal record %d for %s: %w", i, id, err)
		}
		st.intact += int64(len(raw))
		i++
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

// cutTornTail truncates a journal to its intact prefix of size bytes
// and fsyncs it, so the next append starts on a line of its own rather
// than completing the torn one.
func cutTornTail(dir, id string, size int64) error {
	f, err := os.OpenFile(journalPath(dir, id), os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("engine: open journal %s: %w", id, err)
	}
	if err := f.Truncate(size); err != nil {
		_ = f.Close()
		return fmt.Errorf("engine: cut torn tail of %s: %w", id, err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("engine: fsync journal %s: %w", id, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("engine: close journal %s: %w", id, err)
	}
	return nil
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
