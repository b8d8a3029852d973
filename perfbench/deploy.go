package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"p3pdb/internal/durable"
	"p3pdb/internal/registry"
	"p3pdb/internal/replica"
	"p3pdb/internal/server"
)

// listener is one HTTP face of the deployment on a loopback port.
type listener struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("perfbench: listen: %w", err)
	}
	l := &listener{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return l, nil
}

func (l *listener) close() {
	_ = l.srv.Close()
	<-l.done
}

// Deployment is the system under test, all in this process: a durable
// leader (fsync=always) serving the multi-tenant HTTP API, and one
// follower tailing the leader's WAL over HTTP.
type Deployment struct {
	dir      string
	reg      *registry.Registry
	leader   *listener
	follower *replica.Node
	fsrv     *listener
}

func openLeader(dir string) (*registry.Registry, *listener, error) {
	store, err := durable.Open(filepath.Join(dir, "leader"), durable.Options{Fsync: durable.FsyncAlways})
	if err != nil {
		return nil, nil, err
	}
	reg, err := registry.New(registry.Options{Durable: store})
	if err != nil {
		return nil, nil, err
	}
	l, err := listen(server.NewMulti(reg))
	if err != nil {
		return nil, nil, err
	}
	return reg, l, nil
}

// Setup builds a deployment in dir through the HTTP API: creates the
// tenants, registers each tenant's resident preferences, installs its
// policies as one POLICIES document and its reference file, then starts
// the follower and waits until it holds every record. It returns the
// benchmark's record of what it wrote.
func Setup(in *Inputs, dir string) (*Deployment, *Record, error) {
	d := &Deployment{dir: dir}
	var err error
	d.reg, d.leader, err = openLeader(dir)
	if err != nil {
		return nil, nil, err
	}
	hc := newHTTPClient()
	rec := newRecord(in)
	for i, t := range in.Tenants {
		if err := expect(hc, http.MethodPut, d.leader.url+"/sites/"+t, "", http.StatusCreated); err != nil {
			d.Close()
			return nil, nil, err
		}
		ts := rec.tenants[i]
		base := d.leader.url + "/sites/" + t
		for r, p := range in.Resident[i] {
			if err := expect(hc, http.MethodPost, base+"/prefs?engines=sql&name="+residentName(r), p.XML, http.StatusCreated); err != nil {
				d.Close()
				return nil, nil, err
			}
		}
		if err := expect(hc, http.MethodPost, base+"/policies", in.SeedDoc(i, ts.names), http.StatusCreated); err != nil {
			d.Close()
			return nil, nil, err
		}
		if err := expect(hc, http.MethodPost, base+"/reference", ts.ref, http.StatusNoContent); err != nil {
			d.Close()
			return nil, nil, err
		}
	}
	d.follower, err = replica.New(replica.Options{Leader: d.leader.url, Tenants: in.Tenants})
	if err == nil {
		err = d.follower.Start()
	}
	if err != nil {
		d.Close()
		return nil, nil, err
	}
	if d.fsrv, err = listen(d.follower); err != nil {
		d.Close()
		return nil, nil, err
	}
	if err := d.WaitCaughtUp(30 * time.Second); err != nil {
		d.Close()
		return nil, nil, err
	}
	return d, rec, nil
}

func residentName(r int) string { return fmt.Sprintf("resident-%d", r) }

// WaitCaughtUp waits until the follower has applied every record the
// leader logged.
func (d *Deployment) WaitCaughtUp(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		behind := ""
		for _, st := range d.follower.Status() {
			j := d.reg.Journal(st.Tenant)
			if j == nil {
				return fmt.Errorf("perfbench: leader has no journal for %s", st.Tenant)
			}
			if lsn := j.Status().LSN; st.AppliedLSN < lsn {
				behind = fmt.Sprintf("%s at %d of %d", st.Tenant, st.AppliedLSN, lsn)
			}
		}
		if behind == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("perfbench: follower not caught up: %s", behind)
		}
		time.Sleep(time.Millisecond)
	}
}

// StopFollower stops the follower's tail loops and its listener.
func (d *Deployment) StopFollower() {
	if d.fsrv != nil {
		d.fsrv.close()
		d.fsrv = nil
	}
	if d.follower != nil {
		d.follower.Stop()
		d.follower = nil
	}
}

// Crash stops the leader the way a killed process stops: the listener
// goes away and the journals close without a final checkpoint, so the
// next open replays the log tail.
func (d *Deployment) Crash(tenants []string) error {
	d.StopFollower()
	if d.leader != nil {
		d.leader.close()
		d.leader = nil
	}
	var errs []error
	for _, t := range tenants {
		if j := d.reg.Journal(t); j != nil {
			errs = append(errs, j.Close())
		}
	}
	d.reg = nil
	return errors.Join(errs...)
}

// Reopen opens the leader from its directory the way p3pserver starts
// with -recovery-warm: every tenant recovers before the listener
// serves.
func (d *Deployment) Reopen() error {
	var err error
	d.reg, d.leader, err = openLeader(d.dir)
	if err != nil {
		return err
	}
	return d.reg.LoadAll()
}

// Close stops everything and removes the deployment's directory.
func (d *Deployment) Close() {
	d.StopFollower()
	if d.leader != nil {
		d.leader.close()
		d.leader = nil
	}
	if d.reg != nil {
		_ = d.reg.Close() // the directory is removed next
		d.reg = nil
	}
	_ = os.RemoveAll(d.dir)
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true},
	}
}

// do sends one request and returns the status and the whole body.
func do(ctx context.Context, hc *http.Client, method, url, body string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

func expect(hc *http.Client, method, url, body string, want int) error {
	status, data, err := do(context.Background(), hc, method, url, body)
	if err != nil {
		return fmt.Errorf("perfbench: %s %s: %w", method, url, err)
	}
	if status != want {
		return fmt.Errorf("perfbench: %s %s: status %d, want %d: %s", method, url, status, want, data)
	}
	return nil
}
