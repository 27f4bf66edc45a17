package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"paradigm/internal/jobstore"
	"paradigm/internal/service"
)

// smokeCycle drives two identical jobs through a live server over real
// HTTP: the self-contained CI gate that the service starts, schedules,
// answers, memoizes the repeated plan in the schedule cache, and drains.
func smokeCycle(addr, machInfo string) error {
	base := "http://" + addr
	id1, err := smokeSubmitAndWait(base)
	if err != nil {
		return err
	}
	// The identical resubmission must replay the whole allocate→schedule
	// plan from the pipeline-level schedule cache without re-solving.
	if _, err := smokeSubmitAndWait(base); err != nil {
		return fmt.Errorf("resubmit: %w", err)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return err
	}
	var health service.HealthView
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if health.State != "ok" || health.Breaker != "closed" {
		return fmt.Errorf("healthz = %+v, want ok/closed", health)
	}

	resp, err = http.Get(base + "/jobs/" + id1 + "/schedule")
	if err != nil {
		return err
	}
	sched, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(sched) == 0 {
		return fmt.Errorf("schedule fetch: %s", resp.Status)
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"paradigmd_jobs_completed_total 2",
		"alloc_cache_miss_total 1",
		"sched_cache_miss_total 1",
		"sched_cache_hit_total 1",
		// Hot traffic takes the cheap path: the two jobs share one built
		// program. (The smoke server has no checkpoint directory, hence
		// no WAL counters to assert on.)
		"paradigmd_programs_built_total 1",
		"paradigmd_alloc_seconds_sched_cache",
		"paradigmd_tenant_fairness_jain 1",
		machInfo,
	} {
		if !strings.Contains(string(metrics), want) {
			return fmt.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	return nil
}

func smokeSubmitAndWait(base string) (string, error) {
	resp, err := http.Post(base+"/jobs", "application/json",
		strings.NewReader(`{"program":"cmm","size":16,"procs":4}`))
	if err != nil {
		return "", err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: %s: %s", resp.Status, body)
	}
	var accepted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil {
		return "", err
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			return "", errors.New("job did not finish within 60s")
		}
		resp, err := http.Get(base + "/jobs/" + accepted.ID)
		if err != nil {
			return "", err
		}
		var view service.JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			return "", err
		}
		if view.Status == jobstore.StatusFailed {
			return "", fmt.Errorf("job failed: %s", view.Error)
		}
		if view.Status == jobstore.StatusDone {
			if view.Actual <= 0 {
				return "", fmt.Errorf("done job reports non-positive makespan %v", view.Actual)
			}
			if view.Digest == "" {
				return "", errors.New("done job reports no result digest")
			}
			return accepted.ID, nil
		}
		time.Sleep(50 * time.Millisecond)
	}
}
