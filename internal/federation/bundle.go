package federation

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"mbd/internal/elastic"
	"mbd/internal/obs"
	"mbd/internal/rds"
)

// Golden DP bundles: a lineage (an upgradeable unit of one or more DPs)
// is published as a versioned, content-addressed bundle of compiled
// artifacts plus instantiation specs. Distribution is two-phase:
//
//  1. Stage: the bundle propagates down the tree by hash. Each hop
//     probes its members first (an empty-payload stage); a member
//     already holding the hash transfers zero artifact bytes, a miss
//     re-sends the payload from the hop's local copy. Every staged
//     artifact passes the bytecode verifier and the admission policy at
//     stage time — activation never meets an unverified program.
//  2. Activate: one frame flips the lineage's active-version pointer to
//     a staged hash everywhere. Each member starts the new version's
//     instances before terminating the old ones and keeps the old
//     version on any local failure. Rollback is activating the
//     previously active hash — the artifacts are still staged, so no
//     bytes move.

// ErrUnknownBundle answers a probe for a hash this node does not hold;
// the publisher reacts by re-sending the full payload.
var ErrUnknownBundle = errors.New("federation: unknown bundle")

// isUnknownBundle matches ErrUnknownBundle across the wire, where the
// error arrives as rendered text.
func isUnknownBundle(err error) bool {
	return err != nil &&
		(errors.Is(err, ErrUnknownBundle) || strings.Contains(err.Error(), "unknown bundle"))
}

// stagedBundle is one content-addressed bundle version held locally.
type stagedBundle struct {
	bundle   *rds.Bundle
	raw      []byte
	stagedAt time.Time
}

// lineageState tracks one lineage: every staged version plus the
// active-version pointer and the instance ids the active version runs.
type lineageState struct {
	staged      map[string]*stagedBundle
	active      string
	activeDPIs  []string
	activations uint64
}

// bundleStore is a node's staged-bundle inventory.
type bundleStore struct {
	mu       sync.Mutex
	lineages map[string]*lineageState
}

func (s *bundleStore) lineage(name string) *lineageState {
	if s.lineages == nil {
		s.lineages = make(map[string]*lineageState)
	}
	st, ok := s.lineages[name]
	if !ok {
		st = &lineageState{staged: make(map[string]*stagedBundle)}
		s.lineages[name] = st
	}
	return st
}

// get returns the staged bundle for lineage/hash, if held.
func (s *bundleStore) get(lineage, hash string) (*stagedBundle, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.lineages[lineage]
	if !ok {
		return nil, false
	}
	sb, ok := st.staged[hash]
	return sb, ok
}

// BundleStatuses snapshots the node's lineages for sync frames and
// status documents, sorted by lineage.
func (n *Node) BundleStatuses() []rds.BundleStatus {
	n.bundles.mu.Lock()
	defer n.bundles.mu.Unlock()
	out := make([]rds.BundleStatus, 0, len(n.bundles.lineages))
	for name, st := range n.bundles.lineages {
		bs := rds.BundleStatus{Lineage: name, Hash: st.active, Staged: uint64(len(st.staged))}
		if sb, ok := st.staged[st.active]; ok {
			bs.Version = sb.bundle.Version
		}
		out = append(out, bs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lineage < out[j].Lineage })
	return out
}

// PeerBundleStage implements rds.PeerHandler: stage a content-addressed
// bundle across this node's subtree. An empty payload is a probe — it
// succeeds only when the hash is already held, in which case the
// locally held copy seeds the downstream cascade; the publisher
// re-sends the payload on an unknown-bundle refusal. A payload carrying
// source items is normalized here: each is compiled to the canonical
// artifact form, and the returned Hash is the golden (all-compiled)
// content address.
func (n *Node) PeerBundleStage(ctx context.Context, principal, lineage, hash string, payload []byte) (*rds.StageResult, error) {
	start := time.Now()
	self := rds.StageOutcome{Member: n.cfg.Name, Domain: n.cfg.Domain, Addr: "local"}
	var raw []byte
	if len(payload) == 0 {
		sb, ok := n.bundles.get(lineage, hash)
		if !ok {
			return nil, fmt.Errorf("%w: %s (lineage %s)", ErrUnknownBundle, hash, lineage)
		}
		raw = sb.raw
		self.OK, self.AlreadyStaged = true, true
		hash = rds.HashBundle(raw)
	} else {
		var already bool
		var err error
		raw, hash, already, err = n.stageLocal(principal, lineage, hash, payload)
		if err != nil {
			return nil, err
		}
		self.OK, self.AlreadyStaged = true, already
		if !already {
			self.ArtifactBytes = uint64(len(payload))
		}
	}
	n.met.bundleStages.Inc()
	n.met.bundleStageBytes.Add(self.ArtifactBytes)

	res := &rds.StageResult{Lineage: lineage, Hash: hash, Outcomes: []rds.StageOutcome{self}}
	res.Outcomes = append(res.Outcomes, fanMembers(n,
		func(client *rds.Client) ([]rds.StageOutcome, error) {
			// Probe-first delta push: only an unknown-bundle refusal
			// costs the payload bytes.
			sub, err := client.PeerBundleStage(ctx, lineage, hash, nil)
			if isUnknownBundle(err) {
				sub, err = client.PeerBundleStage(ctx, lineage, hash, raw)
			}
			if err != nil {
				return nil, err
			}
			return sub.Outcomes, nil
		}, peerTarget.failedStage)...)
	n.tracer.Record(lineage, obs.StageFanout,
		fmt.Sprintf("bundle-stage hash=%.12s staged=%d/%d bytes=%d",
			hash, res.Staged(), len(res.Outcomes), res.TransferredBytes()),
		time.Since(start))
	return res, nil
}

// stageLocal decodes, normalizes, verifies, and stores one bundle
// payload, returning the canonical encoding, its content address, and
// whether the hash was already held.
func (n *Node) stageLocal(principal, lineage, wantHash string, payload []byte) (raw []byte, hash string, already bool, err error) {
	b, err := rds.DecodeBundle(payload)
	if err != nil {
		return nil, "", false, err
	}
	if b.Lineage != lineage {
		return nil, "", false, fmt.Errorf("federation: bundle names lineage %q, staged as %q", b.Lineage, lineage)
	}
	if len(b.Items) == 0 {
		return nil, "", false, errors.New("federation: bundle carries no items")
	}
	// Normalize source items to the canonical compiled form; the hash is
	// always taken over the all-compiled encoding, so a source publish
	// and its golden artifact share one content address.
	raw = payload
	normalized := false
	for i, it := range b.Items {
		if it.Lang == rds.LangCompiled {
			continue
		}
		cp, err := n.cfg.Proc.CompileProgram(it.Lang, string(it.Blob))
		if err != nil {
			return nil, "", false, fmt.Errorf("federation: compiling bundle item %s: %w", it.DP, err)
		}
		blob, err := cp.Encode()
		if err != nil {
			return nil, "", false, fmt.Errorf("federation: encoding bundle item %s: %w", it.DP, err)
		}
		b.Items[i].Lang, b.Items[i].Blob = rds.LangCompiled, blob
		normalized = true
	}
	if normalized {
		raw = b.Encode()
	}
	hash = rds.HashBundle(raw)
	if wantHash != "" && wantHash != hash {
		return nil, "", false, fmt.Errorf("federation: bundle hashes to %.12s…, staged as %.12s…", hash, wantHash)
	}
	if _, ok := n.bundles.get(lineage, hash); ok {
		return raw, hash, true, nil
	}
	// Every artifact passes verification and admission before the hash
	// is answerable — a staged bundle is a runnable bundle.
	for _, it := range b.Items {
		if err := n.cfg.Proc.VerifyCompiled(principal, it.DP, it.Blob); err != nil {
			return nil, "", false, fmt.Errorf("federation: bundle item %s refused: %w", it.DP, err)
		}
	}
	n.bundles.mu.Lock()
	n.bundles.lineage(lineage).staged[hash] = &stagedBundle{bundle: b, raw: raw, stagedAt: time.Now()}
	n.bundles.mu.Unlock()
	return raw, hash, false, nil
}

// PeerBundleActivate implements rds.PeerHandler: flip lineage's
// active-version pointer to an already-staged hash across the subtree.
// The local flip happens first; if it fails the cascade is skipped
// entirely, so a subtree never activates a version its root refused.
func (n *Node) PeerBundleActivate(ctx context.Context, principal, lineage, hash string) (*rds.FanoutResult, error) {
	start := time.Now()
	sb, ok := n.bundles.get(lineage, hash)
	if !ok {
		return nil, fmt.Errorf("federation: bundle %.12s… not staged for lineage %s", hash, lineage)
	}
	res := &rds.FanoutResult{DP: lineage}
	self := n.activateLocal(principal, lineage, hash, sb)
	res.Outcomes = append(res.Outcomes, self)
	if !self.OK {
		return res, nil
	}
	n.met.bundleActivations.Inc()
	res.Outcomes = append(res.Outcomes, fanMembers(n,
		func(client *rds.Client) ([]rds.FanoutOutcome, error) {
			sub, err := client.PeerBundleActivate(ctx, lineage, hash)
			if err != nil {
				return nil, err
			}
			return sub.Outcomes, nil
		}, peerTarget.failedFanout)...)
	n.tracer.Record(lineage, obs.StageFanout,
		fmt.Sprintf("bundle-activate hash=%.12s accepted=%d rejected=%d",
			hash, res.Accepted(), res.Rejected()),
		time.Since(start))
	return res, nil
}

// activateLocal performs this node's own version flip: install the new
// version's programs, start its instances, and only then terminate the
// previous version's instances and move the pointer. Any failure
// terminates what was just started and leaves the old version running.
func (n *Node) activateLocal(principal, lineage, hash string, sb *stagedBundle) rds.FanoutOutcome {
	out := rds.FanoutOutcome{Member: n.cfg.Name, Domain: n.cfg.Domain, Addr: "local"}
	n.bundles.mu.Lock()
	st := n.bundles.lineage(lineage)
	if st.active == hash {
		out.OK = true
		out.DPI = strings.Join(st.activeDPIs, ",")
		n.bundles.mu.Unlock()
		return out
	}
	prevDPIs := st.activeDPIs
	n.bundles.mu.Unlock()

	var started []string
	fail := func(err error) rds.FanoutOutcome {
		for _, id := range started {
			_ = n.cfg.Proc.Control(principal, id, elastic.ActionTerminate)
		}
		out.Err = err.Error()
		return out
	}
	for _, it := range sb.bundle.Items {
		if err := n.cfg.Proc.DelegateCompiled(principal, it.DP, it.Blob); err != nil {
			return fail(fmt.Errorf("installing %s: %w", it.DP, err))
		}
		if it.Entry == "" {
			continue
		}
		inst, err := n.cfg.Proc.Instantiate(principal, it.DP, it.Entry, rds.ParseArgs(it.Args)...)
		if err != nil {
			return fail(fmt.Errorf("starting %s.%s: %w", it.DP, it.Entry, err))
		}
		started = append(started, inst.ID)
	}
	// New version running: retire the old instances and flip the pointer.
	for _, id := range prevDPIs {
		_ = n.cfg.Proc.Control(principal, id, elastic.ActionTerminate)
	}
	n.bundles.mu.Lock()
	st.active = hash
	st.activeDPIs = started
	st.activations++
	n.bundles.mu.Unlock()
	out.OK = true
	out.DPI = strings.Join(started, ",")
	return out
}
