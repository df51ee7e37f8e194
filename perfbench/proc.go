package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// env locates the built binaries and the run's scratch directory.
type env struct {
	bin  string
	work string
}

func (e env) path(name string) string { return filepath.Join(e.work, name) }

// procResult is one finished child process.
type procResult struct {
	wall   time.Duration
	rssMB  float64
	stdout []byte
}

// maxRSSMB is the peak resident set of a finished process, from rusage.
func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// childTimeout bounds every child process that runs to completion, so a
// hung child fails the run instead of outliving its 180 seconds.
const childTimeout = 90 * time.Second

// command prepares a child process that is killed if the harness dies.
func command(ctx context.Context, path string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, path, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// runPartminer runs one partminer process to completion and times it from
// spawn to exit.
func (e env) runPartminer(args ...string) (procResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := command(ctx, filepath.Join(e.bin, "partminer"), args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return procResult{}, fmt.Errorf("partminer %s: %v: %s", strings.Join(args, " "), err, lastLine(errb.String()))
	}
	return procResult{wall: wall, rssMB: maxRSSMB(cmd.ProcessState), stdout: out.Bytes()}, nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// served is a running partserved process.
type served struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	log    *os.File
	done   chan struct{} // closed once the process has been waited for
}

// startServer spawns partserved on dbPath and returns once /healthz
// answers, with the time that took.
func (e env) startServer(name, dbPath string, args ...string) (*served, time.Duration, error) {
	portFile := e.path(name + ".port")
	os.Remove(portFile)
	logf, err := os.Create(e.path(name + ".log"))
	if err != nil {
		return nil, 0, err
	}
	full := append([]string{"-addr", "127.0.0.1:0", "-portfile", portFile}, args...)
	full = append(full, dbPath)
	cmd := command(context.Background(), filepath.Join(e.bin, "partserved"), full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	s := &served{cmd: cmd, log: logf, client: newClient(2), done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.done)
	}()
	deadline := t0.Add(120 * time.Second)
	for {
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("partserved did not become healthy within 120s")
		}
		if s.base == "" {
			if b, err := os.ReadFile(portFile); err == nil && len(b) > 0 {
				s.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if s.base != "" {
			resp, err := s.client.Get(s.base + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s, time.Since(t0), nil
				}
			}
		}
		select {
		case <-s.done:
			s.stop()
			return nil, 0, fmt.Errorf("partserved exited during start-up; see %s", logf.Name())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop terminates the server, waits for it, and returns its peak RSS.
func (s *served) stop() float64 {
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
	return maxRSSMB(s.cmd.ProcessState)
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 5 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// getJSON decodes a GET reply into v.
func (s *served) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	return decodeReply(resp, v)
}

// post POSTs body and decodes the reply into v.
func (s *served) post(path string, body []byte, v any) error {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return decodeReply(resp, v)
}

// readBody reads and closes a reply's body; a status other than 200 is an
// error.
func readBody(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	return b, nil
}

func decodeReply(resp *http.Response, v any) error {
	b, err := readBody(resp)
	if err != nil {
		return err
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(b, v)
}
