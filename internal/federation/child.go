package federation

import (
	"context"
	"net"
	"sort"
	"strings"
	"time"

	"mbd/internal/elastic"
	"mbd/internal/rds"
)

// childLink is a node's upstream half: it dials the parent (riding the
// rds client's WithReconnect machinery across outages), joins the
// parent's domain, then sends one coalesced sync frame per beat — the
// heartbeat, every pending rollup delta, and this node's bundle
// inventory in a single round trip (OpPeerSync), instead of one
// heartbeat plus N report exchanges.
//
// Forwarding keeps a latest-value-per-key pending map rather than a
// fire-and-forget queue: a report that cannot be delivered (parent
// down, parent restarted and amnesiac) stays pending and is retried
// in the next frame, so the parent's rollup always converges to this
// node's latest values — reports are neither lost nor double-counted
// (the parent overwrites the member's slot).
type childLink struct {
	n    *Node
	kick chan struct{}

	// pending is guarded by n.mu (cheap: touched only on rollup
	// changes and flushes).
	pending map[string]localReport
}

func newChildLink(n *Node) *childLink {
	return &childLink{
		n:       n,
		kick:    make(chan struct{}, 1),
		pending: make(map[string]localReport),
	}
}

// enqueue records key's latest value for upstream delivery and nudges
// the run loop. Called from the node's event subscriber — never blocks.
func (c *childLink) enqueue(key, value string, timeMS int64) {
	c.n.mu.Lock()
	c.pending[key] = localReport{key: key, value: value, timeMS: timeMS}
	c.n.mu.Unlock()
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// onEvent filters for this node's own rollup events ("key=value" from
// rollupPrefix sources) and queues them upstream.
func (c *childLink) onEvent(ev elastic.Event) {
	if ev.Kind != elastic.EventReport || !strings.HasPrefix(ev.DPI, rollupPrefix) {
		return
	}
	key, value, ok := strings.Cut(ev.Payload, "=")
	if !ok {
		return
	}
	c.enqueue(key, value, time.Now().UnixMilli())
}

// run is the child's main loop.
func (c *childLink) run(ctx context.Context) {
	defer c.n.wg.Done()
	cfg := c.n.cfg
	unsub := cfg.Proc.Subscribe(c.onEvent)
	defer unsub()

	// Dial the parent until it answers; afterwards WithReconnect owns
	// redialing and the loop below re-joins over each fresh connection.
	var client *rds.Client
	for attempt := 1; client == nil; attempt++ {
		conn, err := cfg.Dialer(cfg.Parent)
		if err != nil {
			select {
			case <-time.After(rds.Backoff(cfg.HeartbeatInterval, cfg.DeadAfter, attempt)):
				continue
			case <-ctx.Done():
				return
			}
		}
		opts := []rds.ClientOption{
			rds.WithDialTimeout(cfg.DialTimeout),
			rds.WithDialer(func() (net.Conn, error) { return cfg.Dialer(cfg.Parent) }),
			rds.WithReconnect(rds.ReconnectConfig{
				BackoffBase: cfg.HeartbeatInterval / 4,
				BackoffMax:  cfg.DeadAfter,
			}),
		}
		if cfg.Auth != nil {
			opts = append(opts, rds.WithAuth(cfg.Auth))
		}
		client = rds.NewClient(conn, cfg.Principal, opts...)
	}
	defer client.Close()

	joined := false
	fails := 0
	for {
		var err error
		if !joined {
			err = client.PeerJoin(ctx, cfg.Name, cfg.Domain, cfg.Advertise)
			if err == nil {
				joined = true
				fails = 0
				// The parent may be freshly (re)started and amnesiac:
				// re-seed every current rollup value so its view
				// converges without waiting for new local reports.
				c.reseed()
			}
		}
		if joined {
			err = c.sync(ctx, client)
			if err == nil {
				fails = 0
			} else if isUnknownMember(err) {
				joined = false
				continue // re-join immediately, no sleep
			}
		}
		if err != nil {
			fails++
		}

		delay := rds.Backoff(cfg.HeartbeatInterval, cfg.HeartbeatInterval, 1)
		if fails > 0 {
			delay = rds.Backoff(cfg.HeartbeatInterval, cfg.DeadAfter/2, fails)
		}
		select {
		case <-time.After(delay):
		case <-c.kick:
		case <-ctx.Done():
			return
		}
	}
}

// reseed queues every current rollup value for upstream delivery.
func (c *childLink) reseed() {
	for _, row := range c.n.rollup.Rows() {
		c.enqueue(row.Key, row.Value, time.Now().UnixMilli())
	}
}

// sync sends one coalesced frame — heartbeat + up to
// rds.MaxSyncReports pending rollup deltas + bundle inventory — and
// clears the deltas it delivered; a deeper backlog rides the
// immediately-kicked next frame. Entries that changed while the frame
// was in flight stay pending, so the parent still converges to the
// latest values.
func (c *childLink) sync(ctx context.Context, client *rds.Client) error {
	c.n.mu.Lock()
	batch := make([]localReport, 0, len(c.pending))
	for _, r := range c.pending {
		if len(batch) == rds.MaxSyncReports {
			break
		}
		batch = append(batch, r)
	}
	c.n.mu.Unlock()
	sort.Slice(batch, func(i, j int) bool { return batch[i].key < batch[j].key })

	sb := &rds.SyncBatch{Bundles: c.n.BundleStatuses()}
	for _, r := range batch {
		sb.Reports = append(sb.Reports, rds.SyncReport{Key: r.key, Value: r.value, TimeMS: r.timeMS})
	}
	rctx, cancel := context.WithTimeout(ctx, c.n.cfg.DialTimeout)
	err := client.PeerSync(rctx, c.n.cfg.Name, sb)
	cancel()
	if err != nil {
		return err
	}
	c.n.mu.Lock()
	for _, r := range batch {
		if cur, ok := c.pending[r.key]; ok && cur.value == r.value && cur.timeMS == r.timeMS {
			delete(c.pending, r.key)
		}
	}
	backlog := len(c.pending) > 0 && len(batch) == rds.MaxSyncReports
	c.n.mu.Unlock()
	if backlog {
		select {
		case c.kick <- struct{}{}:
		default:
		}
	}
	return nil
}
