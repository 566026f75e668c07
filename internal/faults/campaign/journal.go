package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"

	"pandora/internal/diffcheck"
	"pandora/internal/journal"
	"pandora/internal/mem"
)

// journalVersion guards the journal format; version 1 journals predate
// internal/journal and read as foreign.
const journalVersion = 2

// journalHeader is the journal's first line: it fingerprints the campaign
// so Resume refuses to mix trials from incompatible runs. Image digests
// the memory snapshot every trial starts from — if the generator's
// initial image ever changes, old journal entries are meaningless.
type journalHeader struct {
	Version int      `json:"version"`
	Seed    int64    `json:"seed"`
	Trials  int      `json:"trials"`
	Control int      `json:"control"`
	Sites   []string `json:"sites"`
	Image   string   `json:"image"`
}

func headerFor(opts *Options) journalHeader {
	h := journalHeader{
		Version: journalVersion,
		Seed:    opts.Seed,
		Trials:  opts.trials(),
		Control: opts.control(),
		Image:   imageDigest(),
	}
	for _, s := range opts.sites() {
		h.Sites = append(h.Sites, s.String())
	}
	return h
}

// imageDigest fingerprints the initial memory image trials run against:
// an FNV-64a over a snapshot of the generator's scratch regions.
func imageDigest() string {
	m := mem.New()
	diffcheck.InitMemory(m)
	snap := m.Snapshot()
	h := fnv.New64a()
	bases, span := diffcheck.ScratchRegions()
	for _, b := range bases {
		h.Write(snap.LoadBytes(b, int(span)))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func trialKey(site string, index int) string {
	return fmt.Sprintf("%s/%d", site, index)
}

// openJournal creates (or, under Resume, replays and compacts) the
// campaign journal. It returns the append handle and the trials already
// completed, keyed by trialKey.
//
// The MAC key is the marshalled header itself, which anyone can
// recompute: the per-record MACs detect corrupted, torn or spliced
// lines (a corrupted trial reruns instead of skewing the report), not
// deliberate forgery.
func openJournal(opts *Options) (*journal.Writer, map[string]Trial, error) {
	h := headerFor(opts)
	key, _ := json.Marshal(h) // ints and strings only: cannot fail
	done := map[string]Trial{}
	var kept []json.RawMessage
	if opts.Resume {
		recs, _, err := journal.Read(opts.Journal, key, h)
		if errors.As(err, new(*journal.MismatchError)) {
			return nil, nil, fmt.Errorf(
				"campaign: journal %s was written by a different campaign (seed/sites/trials/image differ); delete it or drop -resume",
				opts.Journal)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("campaign: %w", err)
		}
		for _, rec := range recs {
			var t Trial
			if json.Unmarshal(rec, &t) != nil {
				continue
			}
			k := trialKey(t.Site, t.Index)
			if _, dup := done[k]; dup {
				continue
			}
			done[k] = t
			kept = append(kept, rec)
		}
	}
	j, err := journal.Create(opts.Journal, key, h, kept)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: %w", err)
	}
	return j, done, nil
}
