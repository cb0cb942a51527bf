package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestEndToEndDaemons deploys the real binaries — object store, data
// generator, head node and two cluster workers — as separate OS processes
// on loopback, runs a kNN job across a 1/3-2/3 data split, and checks the
// reported job accounting. This is the full production path: every byte
// crosses real sockets between real processes. The daemons end in order —
// the head's Shutdown notice, the workers' clean exits, Head.Close — and a
// second, deliberately incomplete deployment checks the other way out: a
// worker sent SIGTERM while parked at the head exits 0 with its trace
// written.
func TestEndToEndDaemons(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and builds binaries")
	}
	bin := t.TempDir()
	build := func(name string) string {
		out := filepath.Join(bin, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, msg)
		}
		return out
	}
	s3d := build("s3d")
	datagen := build("datagen")
	headnode := build("headnode")
	workernode := build("workernode")

	freePort := func() string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		return l.Addr().String()
	}
	s3Addr := freePort()
	headAddr := freePort()
	dataDir := filepath.Join(t.TempDir(), "data")

	// 1. Object store daemon.
	s3Cmd := exec.Command(s3d, "-listen", s3Addr)
	var s3Log bytes.Buffer
	s3Cmd.Stdout, s3Cmd.Stderr = &s3Log, &s3Log
	if err := s3Cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = s3Cmd.Process.Kill()
		_, _ = s3Cmd.Process.Wait()
	}()
	waitForPort(t, s3Addr)

	// 2. Dataset: 6 files on disk (the "storage node"); the SAME layout is
	// also uploaded to the store so remote jobs resolve (each site serves
	// the files placed there).
	const units = "120000"
	runCmd(t, datagen, "-kind", "points", "-units", units, "-dim", "4",
		"-file-units", "20000", "-chunk-units", "4000", "-out", dataDir)
	runCmd(t, datagen, "-kind", "points", "-units", units, "-dim", "4",
		"-file-units", "20000", "-chunk-units", "4000", "-store", s3Addr)

	// 3. Head node: 2 of 6 files local (site 0), rest in the store.
	headCmd := exec.Command(headnode,
		"-listen", headAddr,
		"-index", filepath.Join(dataDir, "index.grix"),
		"-local-files", "2", "-clusters", "2",
		"-app", "knn", "-knn-k", "5", "-dim", "4", "-query", "0.5,0.5,0.5,0.5")
	var headLog bytes.Buffer
	headCmd.Stdout, headCmd.Stderr = &headLog, &headLog
	if err := headCmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = headCmd.Process.Kill()
		_, _ = headCmd.Process.Wait()
	}()
	waitForPort(t, headAddr)

	// 4. Two workers.
	worker := func(head string, site int, name string, log io.Writer, extra ...string) *exec.Cmd {
		args := []string{"-head", head, "-site", fmt.Sprint(site), "-name", name,
			"-cores", "2", "-retrieval", "2", "-s3", s3Addr}
		if site == 0 {
			args = append(args, "-data", dataDir)
		}
		cmd := exec.Command(workernode, append(args, extra...)...)
		cmd.Stdout, cmd.Stderr = log, log
		return cmd
	}
	var localLog, cloudLog bytes.Buffer
	localCmd := worker(headAddr, 0, "local", &localLog)
	cloudCmd := worker(headAddr, 1, "cloud", &cloudLog)
	if err := localCmd.Start(); err != nil {
		t.Fatal(err)
	}
	if err := cloudCmd.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i, cmd := range []*exec.Cmd{localCmd, cloudCmd, headCmd} {
		wg.Add(1)
		go func(i int, cmd *exec.Cmd) {
			defer wg.Done()
			errs[i] = cmd.Wait()
		}(i, cmd)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(90 * time.Second):
		t.Fatalf("deployment did not finish\nhead: %s\nlocal: %s\ncloud: %s",
			headLog.String(), localLog.String(), cloudLog.String())
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v\nhead: %s\nlocal: %s\ncloud: %s",
				i, err, headLog.String(), localLog.String(), cloudLog.String())
		}
	}
	head := headLog.String()
	if !strings.Contains(head, "run complete") {
		t.Errorf("head output missing completion:\n%s", head)
	}
	for _, pair := range []struct{ name, log string }{
		{"local", localLog.String()}, {"cloud", cloudLog.String()},
	} {
		if !strings.Contains(pair.log, "done:") {
			t.Errorf("%s worker output missing report:\n%s", pair.name, pair.log)
		}
		// Exit 0 (checked above) because the head said so, not by accident.
		if !strings.Contains(pair.log, "head ended the session") {
			t.Errorf("%s worker did not leave on the head's Shutdown notice:\n%s", pair.name, pair.log)
		}
	}
	// 30 chunks total: both clusters' job counts appear in the head report.
	if !strings.Contains(head, "jobs local=") {
		t.Errorf("head report missing job accounting:\n%s", head)
	}

	// 5. A head expecting two clusters gets one: the lone worker folds every
	// job, submits, and then sits parked at the head, which waits for a second
	// result that never comes. SIGTERM must end it cleanly, trace flushed.
	head2Addr := freePort()
	head2 := exec.Command(headnode,
		"-listen", head2Addr,
		"-index", filepath.Join(dataDir, "index.grix"),
		"-local-files", "2", "-clusters", "2",
		"-app", "knn", "-knn-k", "5", "-dim", "4", "-query", "0.5,0.5,0.5,0.5")
	var head2Log syncBuffer
	head2.Stdout, head2.Stderr = &head2Log, &head2Log
	if err := head2.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = head2.Process.Kill()
		_, _ = head2.Process.Wait()
	}()
	waitForPort(t, head2Addr)
	tracePath := filepath.Join(t.TempDir(), "lone.trace.json")
	var loneLog syncBuffer
	lone := worker(head2Addr, 0, "lone", &loneLog, "-trace", tracePath)
	if err := lone.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = lone.Process.Kill() }()
	deadline := time.Now().Add(60 * time.Second)
	for !strings.Contains(loneLog.String(), "done:") {
		if time.Now().After(deadline) {
			t.Fatalf("lone worker never submitted its result\nhead: %s\nworker: %s", head2Log.String(), loneLog.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := lone.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := lone.Wait(); err != nil {
		t.Errorf("parked worker after SIGTERM: %v\n%s", err, loneLog.String())
	}
	if !strings.Contains(loneLog.String(), "shutdown signal") {
		t.Errorf("parked worker did not take the signal path:\n%s", loneLog.String())
	}
	// The fail-fast head loses its only master mid-query: the run fails, the
	// daemon says why and exits non-zero on its own.
	if err := head2.Wait(); err == nil || !strings.Contains(head2Log.String(), "lost master") {
		t.Errorf("head abandoned by its master: exit %v\n%s", err, head2Log.String())
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("parked worker left no trace: %v\n%s", err, loneLog.String())
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("worker trace is not valid JSON: %v", err)
	}
	spans := map[string]int{}
	for _, ev := range doc.TraceEvents {
		spans[ev.Name]++
	}
	// The head collects no trace here, so the worker's spans stay with it.
	if spans["retrieve"] != 30 || spans["process"] != 30 {
		t.Errorf("worker trace has %d retrieve and %d process spans, want 30 each", spans["retrieve"], spans["process"])
	}
}

// syncBuffer is a bytes.Buffer a test may read while a child process's
// output is still being copied into it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func runCmd(t *testing.T, name string, args ...string) {
	t.Helper()
	cmd := exec.Command(name, args...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
}

func waitForPort(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("nothing listening on %s", addr)
}
