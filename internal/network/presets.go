package network

// Preset paths, calibrated to commonly reported characteristics of the
// respective access technologies. The absolute values matter less than the
// ordering: LAN-to-edge is an order of magnitude closer than WAN-to-cloud,
// which is exactly the gap the non-time-critical argument says we may
// ignore.

// WiFiCloud models a device on home/office WiFi reaching a cloud region
// over the WAN: ~25 ms one-way, 50/100 Mbps up/down.
func WiFiCloud() Config {
	return Config{
		Name:        "wifi-cloud",
		OneWayDelay: 0.025,
		JitterStd:   0.004,
		UplinkBps:   50e6,
		DownlinkBps: 100e6,
		Serialize:   true,
	}
}

// LTECloud models a cellular device reaching the cloud: ~45 ms one-way,
// 10/40 Mbps, with occasional degraded radio conditions.
func LTECloud() Config {
	return Config{
		Name:          "lte-cloud",
		OneWayDelay:   0.045,
		JitterStd:     0.012,
		UplinkBps:     10e6,
		DownlinkBps:   40e6,
		GoodToBadRate: 1.0 / 120, // degrade roughly every 2 minutes
		BadToGoodRate: 1.0 / 15,  // bad spells last ~15 s
		BadFactor:     0.25,
		Serialize:     true,
	}
}

// LANEdge models the same device reaching an on-premises edge server:
// ~2 ms one-way, symmetric 200 Mbps.
func LANEdge() Config {
	return Config{
		Name:        "lan-edge",
		OneWayDelay: 0.002,
		JitterStd:   0.0005,
		UplinkBps:   200e6,
		DownlinkBps: 200e6,
		Serialize:   true,
	}
}

// FiveGEdge models a 5G device reaching a MEC site: ~8 ms one-way,
// 80/300 Mbps.
func FiveGEdge() Config {
	return Config{
		Name:        "5g-edge",
		OneWayDelay: 0.008,
		JitterStd:   0.002,
		UplinkBps:   80e6,
		DownlinkBps: 300e6,
		Serialize:   true,
	}
}
