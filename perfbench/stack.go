package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mbd/internal/federation"
	"mbd/internal/mbd"
	"mbd/internal/mib"
	"mbd/internal/rds"
	"mbd/internal/vdl"
)

// domainViews are the federation-scoped views the domain workload
// queries; both stay materialized, so every rollup change refreshes
// both.
const domainViews = `view domainKeys {
  from fedRollupTable;
  select fedRollupKey, fedRollupValue, fedRollupMembers;
}
view domainSize {
  from fedRollupTable;
  select count() as keys, sum(fedRollupMembers) as contribs;
}`

// heartbeat is the federation heartbeat. Members are declared dead
// after eight silent heartbeats; the domain workload syncs each member
// several times a second, so only set-up and the side measurements
// leave them silent, for far less than that.
const heartbeat = 5 * time.Second

// stack is the server cmd/mbdserver builds, run inside this process:
// an MbD server with views on (and a federation node for the domain
// workload), its RDS service on loopback TCP and its SNMP agent on
// loopback UDP. udp counts the bytes of the agent's datagrams.
type stack struct {
	dev      *mib.Device
	srv      *mbd.Server
	rdsSrv   *rds.Server
	rdsAddr  string
	snmpAddr string
	udp      *udpCount

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// newStack builds and starts a stack. The device has 8 interfaces and
// its counter noise is seeded from seed.
func newStack(seed int64, domain bool) (*stack, error) {
	dev, err := mib.NewDevice(mib.DeviceConfig{Name: "bench-router", Interfaces: 8, Seed: seed})
	if err != nil {
		return nil, err
	}
	dev.AddRoute([4]byte{0, 0, 0, 0}, 1, 1, [4]byte{10, 0, 0, 254})
	dev.SetLoad(mib.LoadProfile{Utilization: 0.2, BroadcastFraction: 0.04, ErrorRate: 0.002, CollisionRate: 0.03})
	mcva := vdl.NewMCVA(dev.Tree(), vdl.MIB2())
	if err := dev.Tree().Mount(vdl.OIDViews, mcva.Handler()); err != nil {
		return nil, err
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("rds listen: %w", err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		l.Close()
		return nil, fmt.Errorf("snmp listen: %w", err)
	}
	cfg := mbd.Config{
		Device:        dev,
		Community:     "public",
		ExtraBindings: mcva.Bindings(),
		EnableViews:   true,
		MaxDPIs:       256,
	}
	if domain {
		cfg.Federation = &federation.Config{
			Name:              "noc",
			Domain:            "campus",
			Advertise:         l.Addr().String(),
			Combiner:          federation.Sum(),
			HeartbeatInterval: heartbeat,
		}
		cfg.ViewDefs = []string{domainViews}
	}
	srv, err := mbd.New(cfg)
	if err != nil {
		l.Close()
		pc.Close()
		return nil, err
	}
	if err := srv.Agent().MountStats(dev.Tree()); err != nil {
		srv.Stop()
		l.Close()
		pc.Close()
		return nil, err
	}

	var opts []rds.ServerOption
	if node := srv.Federation(); node != nil {
		opts = append(opts, rds.WithPeerHandler(node))
	}
	opts = append(opts, rds.WithViewHandler(srv.Views()))
	s := &stack{
		dev:      dev,
		srv:      srv,
		rdsSrv:   rds.NewServer(srv.Process(), nil, opts...),
		rdsAddr:  l.Addr().String(),
		snmpAddr: pc.LocalAddr().String(),
		udp:      &udpCount{},
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		_ = s.rdsSrv.Serve(ctx, l)
	}()
	go func() {
		defer s.wg.Done()
		_ = srv.Agent().ServeUDP(ctx, countingPacketConn{pc, s.udp})
	}()
	return s, nil
}

// close stops the sockets, waits for their goroutines, then stops the
// server. Clients must be closed first.
func (s *stack) close() {
	s.cancel()
	s.wg.Wait()
	s.srv.Stop()
}

// wire totals application bytes read and written on the server's
// sockets: RDS frames on TCP, as the RDS server counts them, and SNMP
// datagrams on UDP, without the TCP, UDP or IP headers.
func (s *stack) wire() uint64 {
	rs := s.rdsSrv.Stats()
	return rs.BytesIn + rs.BytesOut + s.udp.in.Load() + s.udp.out.Load()
}

// udpCount totals the bytes of the SNMP datagrams the agent reads and
// writes; the agent keeps no such count itself.
type udpCount struct{ in, out atomic.Uint64 }

type countingPacketConn struct {
	net.PacketConn
	w *udpCount
}

func (c countingPacketConn) ReadFrom(p []byte) (int, net.Addr, error) {
	n, addr, err := c.PacketConn.ReadFrom(p)
	c.w.in.Add(uint64(n))
	return n, addr, err
}

func (c countingPacketConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	n, err := c.PacketConn.WriteTo(p, addr)
	c.w.out.Add(uint64(n))
	return n, err
}
